"""``run_scenario`` + cache: warm hits are free, bit-identical, RNG-silent.

The acceptance property of the tentpole: a warm cache hit for any builtin
scenario returns records bit-identical to a fresh sharded run -- same
fingerprint, same JSON bytes -- without executing the engine and without
consuming any randomness.
"""

import pytest

import repro.scenarios.run as run_module
from repro.cache import ResultCache, run_fingerprint
from repro.cache.store import CACHE_DIR_ENV_VAR
from repro.experiments.__main__ import main
from repro.experiments.export import records_to_json
from repro.scenarios import get_scenario, run_scenario

SEED = 11
SHOTS = 24


@pytest.fixture()
def cache(tmp_path):
    """A fresh cache rooted in the test's temp dir."""
    return ResultCache(tmp_path / "cache")


def _forbid_execution(monkeypatch):
    """Make any engine execution (sweep dispatch) a hard failure."""

    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("warm cache hit must not execute the sweep")

    monkeypatch.setattr(run_module.SweepRunner, "map_shards", explode)


class TestWarmHits:
    def test_warm_hit_is_bit_identical_and_engine_free(self, cache, monkeypatch):
        fresh = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        _forbid_execution(monkeypatch)
        warm = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        assert warm == fresh

    def test_warm_hit_json_bytes_match_fresh_run(self, cache, tmp_path, monkeypatch):
        fresh = run_scenario(
            "htree-teleport-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        records_to_json(fresh, tmp_path / "fresh.json")
        _forbid_execution(monkeypatch)
        warm = run_scenario(
            "htree-teleport-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        records_to_json(warm, tmp_path / "warm.json")
        assert (tmp_path / "warm.json").read_bytes() == (
            tmp_path / "fresh.json"
        ).read_bytes()

    def test_warm_hit_consumes_no_rng(self, cache):
        """A cached read between two fresh runs cannot shift their streams."""
        a = run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache)
        run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache)
        b = run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=False)
        assert a == b

    def test_sharded_fresh_run_matches_serial_warm_hit(self, cache):
        serial = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        sharded = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED, workers=4, shard_size=8, cache=cache
        )
        assert serial == sharded


class TestKeying:
    def test_different_inputs_do_not_collide(self, cache):
        run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache)
        other = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED + 1, workers=1, cache=cache
        )
        fresh = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED + 1, workers=1, cache=False
        )
        assert other == fresh
        assert len(cache.fingerprints()) == 2

    def test_fingerprint_matches_resolve_run(self, cache):
        run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache)
        expected = run_fingerprint(get_scenario("ideal-m3"), seed=SEED, shots=SHOTS)
        assert cache.fingerprints() == [expected]

    def test_records_stamp_resolved_engine_and_router(self, cache):
        records = run_scenario(
            "ideal-m3", shots=SHOTS, seed=SEED, workers=1, cache=cache
        )
        for record in records:
            assert record["engine"] == "feynman-tape"
            assert record["router"] == "greedy-swap"
        cached = cache.get(cache.fingerprints()[0])
        assert [r["router"] for r in cached] == ["greedy-swap"] * len(records)


class TestCli:
    def _run(self, tmp_path, out, *extra):
        return main(
            [
                "scenario",
                "ideal-m3",
                "--shots",
                str(SHOTS),
                "--seed",
                str(SEED),
                "--workers",
                "1",
                "--out",
                str(tmp_path / out),
                *extra,
            ]
        )

    def test_cache_flag_round_trips_artefacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "cli-cache"))
        assert self._run(tmp_path, "cold", "--cache") == 0
        _forbid_execution(monkeypatch)
        assert self._run(tmp_path, "warm", "--cache") == 0
        cold = (tmp_path / "cold" / "scenario_ideal-m3.json").read_bytes()
        warm = (tmp_path / "warm" / "scenario_ideal-m3.json").read_bytes()
        assert cold == warm

    def test_env_var_alone_enables_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env-cache"))
        assert self._run(tmp_path, "cold") == 0
        assert ResultCache(tmp_path / "env-cache").fingerprints()

    def test_no_cache_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "off-cache"))
        assert self._run(tmp_path, "cold", "--no-cache") == 0
        assert not (tmp_path / "off-cache").exists()

    def test_cache_and_no_cache_conflict(self, tmp_path):
        with pytest.raises(SystemExit):
            self._run(tmp_path, "x", "--cache", "--no-cache")
