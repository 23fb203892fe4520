"""Tests for the per-shot seed streams behind deterministic sharding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.qram import ClassicalMemory, VirtualQRAM
from repro.sim import GateNoiseModel, PauliChannel
from repro.circuit.ir import NoiseSiteTable
from repro.sim.seeding import ShotSeeds, as_shot_seeds, draw_shot_randomness
from repro.sweep import split_shots


class TestShotSeeds:
    def test_same_coordinates_same_stream(self):
        a = ShotSeeds(seed=7, point_index=3, start=0).generator(5)
        b = ShotSeeds(seed=7, point_index=3, start=0).generator(5)
        assert np.array_equal(a.random(16), b.random(16))

    def test_shifted_window_aliases_absolute_shots(self):
        # Shot 12 reached as start=0/local=12 or start=10/local=2 is the
        # same stream: seeding is keyed on the absolute shot index.
        base = ShotSeeds(seed=11, point_index=0)
        assert np.array_equal(
            base.generator(12).random(8), base.shifted(10).generator(2).random(8)
        )

    def test_distinct_shots_points_and_seeds_differ(self):
        reference = ShotSeeds(seed=1, point_index=0).generator(0).random(8)
        for other in (
            ShotSeeds(seed=1, point_index=0).generator(1),
            ShotSeeds(seed=1, point_index=1).generator(0),
            ShotSeeds(seed=2, point_index=0).generator(0),
        ):
            assert not np.array_equal(reference, other.random(8))

    def test_window_draw_matches_generator(self):
        seeds = ShotSeeds(seed=5, point_index=2, start=4)
        _, uniforms = draw_shot_randomness(None, seeds, 3, n_measurements=4)
        assert uniforms.shape == (4, 3)
        assert np.array_equal(uniforms[:, 2], seeds.generator(2).random(4))

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ShotSeeds(seed=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, point_index=-1)
        with pytest.raises(ValueError):
            ShotSeeds(seed=0, start=-2)

    @pytest.mark.parametrize("field", ["seed", "point_index", "start"])
    @pytest.mark.parametrize(
        "value",
        [1.5, "3", True, np.bool_(True), np.float64(2.0), None],
        ids=["float", "str", "bool", "numpy-bool", "numpy-float", "none"],
    )
    def test_non_integer_coordinates_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            ShotSeeds(**{"seed": 0, field: value})

    def test_numpy_integers_normalised_to_int(self):
        seeds = ShotSeeds(np.uint64(2**63), np.int32(2), np.uint8(5))
        assert seeds == ShotSeeds(2**63, 2, 5)
        assert hash(seeds) == hash(ShotSeeds(2**63, 2, 5))
        for value in (seeds.seed, seeds.point_index, seeds.start):
            assert type(value) is int


def _per_shot_reference(seeds: ShotSeeds, shots: int, width: int) -> np.ndarray:
    """The per-shot construction the window draw replaces, ``(width, shots)``."""
    block = np.empty((shots, width))
    for shot in range(shots):
        np.random.default_rng(seeds.sequence(shot)).random(out=block[shot])
    return block.T


#: Seeds of one to seven uint32 words, around every word boundary the
#: SeedSequence entropy assembly pads or splits at.
window_seeds = (
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1])
    | st.integers(2**64, 2**64 + 2**16)
    | st.integers(2**128, 2**200)
    | st.integers(0, 2**64)
)
window_points = (
    st.integers(0, 50) | st.integers(2**32 - 2, 2**32 + 2) | st.integers(2**32, 2**80)
)
#: Window starts that straddle the one- to two-word (and two- to
#: three-word) shot-index boundaries for up to 64 shots.
window_starts = (
    st.integers(0, 10**6)
    | st.integers(2**32 - 64, 2**32 + 64)
    | st.integers(2**64 - 64, 2**64 + 64)
)


class TestWindowDraw:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=window_seeds,
        point_index=window_points,
        start=window_starts,
        shots=st.integers(1, 64),
        width=st.integers(1, 6),
    )
    @example(seed=7, point_index=3, start=2**32 - 5, shots=10, width=2)
    @example(seed=2**130 + 9, point_index=2**33, start=2**32 - 64, shots=64, width=1)
    @example(seed=0, point_index=0, start=2**64 - 1, shots=3, width=4)
    def test_window_matches_per_shot_default_rng(
        self, seed, point_index, start, shots, width
    ):
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        events, uniforms = draw_shot_randomness(None, seeds, shots, width)
        assert events is None
        np.testing.assert_array_equal(
            uniforms, _per_shot_reference(seeds, shots, width)
        )

    @pytest.mark.parametrize("shots", [0, 1, 64])
    def test_zero_width_draws(self, shots):
        seeds = ShotSeeds(seed=2**64 + 3, point_index=2**32, start=2**32 - 1)
        assert draw_shot_randomness(None, seeds, shots) == (None, None)
        empty = np.empty(0, dtype=np.int32)
        table = NoiseSiteTable(
            gate_index=empty, qubit=empty, group_index=empty, channels=()
        )
        events, uniforms = draw_shot_randomness(table, seeds, shots)
        assert events.shape == (0,) and events.dtype == np.int64
        assert uniforms is None


class TestAsShotSeeds:
    def test_window_passes_through(self):
        seeds = ShotSeeds(seed=3, point_index=2, start=5)
        assert as_shot_seeds(seeds) is seeds

    @pytest.mark.parametrize(
        "seed",
        [0, 7, np.int64(7), np.uint8(200)],
        ids=["int-0", "int-7", "int64", "uint8"],
    )
    def test_integer_seeds_a_window(self, seed):
        assert as_shot_seeds(seed) == ShotSeeds(int(seed))

    def test_generator_seeds_a_window_from_one_draw(self):
        expected = ShotSeeds(int(np.random.default_rng(4).integers(2**63)))
        assert as_shot_seeds(np.random.default_rng(4)) == expected

    def test_none_seeds_a_fresh_window(self):
        seeds = as_shot_seeds(None)
        assert isinstance(seeds, ShotSeeds)
        assert (seeds.point_index, seeds.start) == (0, 0)
        assert seeds.seed >= 0

    @pytest.mark.parametrize("rng", [True, 1.5, "7"], ids=["bool", "float", "str"])
    def test_other_types_rejected(self, rng):
        with pytest.raises(TypeError, match="rng"):
            as_shot_seeds(rng)

    def test_run_query_integer_seed_is_its_window(self):
        qram = VirtualQRAM(
            memory=ClassicalMemory.from_values([1, 0, 1, 1]), qram_width=1
        )
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        by_int = qram.run_query(noise, shots=16, rng=7)
        by_window = qram.run_query(noise, shots=16, rng=ShotSeeds(7))
        assert np.array_equal(by_int.fidelities, by_window.fidelities)
        assert by_int.mean_fidelity < 1.0  # the noise did act


class TestSplitShots:
    def test_exact_division(self):
        assert split_shots(8, 4) == [(0, 4), (4, 4)]

    def test_remainder_goes_to_last_shard(self):
        assert split_shots(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_oversized_shard_is_single_unit(self):
        assert split_shots(3, 100) == [(0, 3)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            split_shots(0, 4)
        with pytest.raises(ValueError):
            split_shots(4, 0)

    @given(shots=st.integers(1, 300), shard_size=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, shots, shard_size):
        shards = split_shots(shots, shard_size)
        assert sum(count for _, count in shards) == shots
        position = 0
        for start, count in shards:
            assert start == position and count >= 1
            position += count
