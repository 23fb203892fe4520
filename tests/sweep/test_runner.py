"""Tests for the SweepRunner scheduling and merging machinery."""

import numpy as np
import pytest

from repro.sweep import (
    DEFAULT_SHARD_SIZE,
    WORKERS_ENV_VAR,
    ShotShard,
    SweepRunner,
    resolve_workers,
)


# Module-level workers: the process pool pickles callables by reference.
def _square(value):
    return value * value


def _shard_signature(spec, shard):
    """Fidelity-array-shaped payload encoding which unit produced it."""
    return np.full(shard.shots, float(spec) + shard.start / 1000.0)


def _boom(spec, shard):
    raise RuntimeError(f"unit {shard.point_index}/{shard.shard_index} exploded")


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers must be non-negative, got -2"):
            resolve_workers(-2)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "must be a non-negative integer, got 'abc'"),
            ("1.5", "must be a non-negative integer, got '1.5'"),
            ("-1", "must be non-negative, got -1"),
        ],
    )
    def test_bad_env_value_names_the_variable(self, monkeypatch, value, message):
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(ValueError, match=f"^{WORKERS_ENV_VAR} {message}"):
            resolve_workers(None)


class TestSweepRunner:
    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=1, shard_size=0)

    def test_map_units_serial_order(self):
        runner = SweepRunner(workers=1)
        assert runner.map_units(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_map_units_parallel_preserves_order(self):
        runner = SweepRunner(workers=2)
        units = [(value,) for value in range(10)]
        assert runner.map_units(_square, units) == [v * v for v in range(10)]

    def test_map_points(self):
        runner = SweepRunner(workers=1)
        assert runner.map_points(_square, [2, 4]) == [4, 16]

    def test_worker_exception_propagates(self):
        runner = SweepRunner(workers=2, shard_size=1)
        with pytest.raises(RuntimeError, match="exploded"):
            runner.map_shards(_boom, [0, 1], shots=2, seed=0)

    def test_shards_cover_the_shot_range(self):
        runner = SweepRunner(workers=1, shard_size=4)
        shards = runner.shards(10, seed=9, point_index=5)
        assert [(s.start, s.shots) for s in shards] == [(0, 4), (4, 4), (8, 2)]
        assert all(s.point_index == 5 and s.seed == 9 for s in shards)
        assert [s.shard_index for s in shards] == [0, 1, 2]

    def test_default_shard_size(self):
        assert SweepRunner(workers=1).shard_size == DEFAULT_SHARD_SIZE

    def test_shard_seeds_window(self):
        shard = ShotShard(point_index=2, shard_index=1, start=32, shots=8, seed=4)
        seeds = shard.seeds()
        assert (seeds.seed, seeds.point_index, seeds.start) == (4, 2, 32)

    def test_map_shards_merges_in_shot_order(self):
        runner = SweepRunner(workers=1, shard_size=2)
        results = runner.map_shards(_shard_signature, [1, 2], shots=5, seed=0)
        assert [r.shots for r in results] == [5, 5]
        assert np.array_equal(
            results[0].fidelities,
            np.array([1.0, 1.0, 1.002, 1.002, 1.004]),
        )
        assert np.array_equal(
            results[1].fidelities,
            np.array([2.0, 2.0, 2.002, 2.002, 2.004]),
        )

    def test_map_shards_point_offset_shifts_seeding(self):
        runner = SweepRunner(workers=1, shard_size=8)
        base = runner.map_shards(_point_echo, [None, None], shots=4, seed=0)
        off = runner.map_shards(
            _point_echo, [None, None], shots=4, seed=0, point_offset=7
        )
        assert [r.fidelities[0] for r in base] == [0, 1]
        assert [r.fidelities[0] for r in off] == [7, 8]

    def test_map_shards_wrong_length_rejected(self):
        runner = SweepRunner(workers=1, shard_size=4)

        with pytest.raises(ValueError, match="one value per shot"):
            runner.map_shards(_bad_length, [0], shots=8, seed=0)


def _bad_length(spec, shard):
    return np.zeros(shard.shots + 1)


def _point_echo(spec, shard):
    return np.full(shard.shots, float(shard.point_index))
