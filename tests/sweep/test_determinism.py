"""The seed-splitting guarantee: merged shard results are bit-identical.

This is the property the whole sweep subsystem rests on: with or without
noise, running a Monte-Carlo query sweep sharded across any
number of workers with any shard size produces fidelities bit-identical to
the serial, unsharded run -- because every shot's random stream is keyed on
``(seed, point_index, shot_index)`` and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM
from repro.sim import (
    GateNoiseModel,
    NoiselessModel,
    PauliChannel,
    ShotSeeds,
)
from repro.sweep import ShotShard, SweepRunner
from tests.oracle import assert_tape_matches_oracle

SHOTS = 12
SEED = 21

#: The noise models every invariance property runs under.
NOISE = {
    "depolarizing": GateNoiseModel(PauliChannel.depolarizing(0.02)),
    "noiseless": NoiselessModel(),
}


def _architecture() -> VirtualQRAM:
    return VirtualQRAM(memory=random_memory(2, SEED), qram_width=2)


def _query_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    (noise_name,) = spec
    architecture = _architecture()
    result = architecture.run_query(NOISE[noise_name], shard.shots, rng=shard.seeds())
    return result.fidelities


def _merged(noise_name: str, workers: int, shard_size: int) -> np.ndarray:
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    results = runner.map_shards(_query_shard, [(noise_name,)], shots=SHOTS, seed=SEED)
    return results[0].fidelities


class TestQuerySweepsAreShardInvariant:
    @pytest.mark.parametrize("noise_name", sorted(NOISE))
    @pytest.mark.parametrize("shard_size", [1, 5, SHOTS, 64])
    def test_shard_size_invariance_serial(self, noise_name, shard_size):
        reference = _merged(noise_name, workers=1, shard_size=SHOTS)
        assert np.array_equal(
            _merged(noise_name, workers=1, shard_size=shard_size), reference
        )

    @pytest.mark.parametrize("noise_name", sorted(NOISE))
    def test_worker_invariance(self, noise_name):
        reference = _merged(noise_name, workers=1, shard_size=4)
        assert np.array_equal(_merged(noise_name, workers=2, shard_size=4), reference)

    @given(shard_size=st.integers(1, 2 * SHOTS))
    @settings(max_examples=12, deadline=None)
    def test_shard_size_property_tape_engine(self, shard_size):
        reference = _merged("depolarizing", workers=1, shard_size=SHOTS)
        assert np.array_equal(
            _merged("depolarizing", workers=1, shard_size=shard_size), reference
        )


class TestTapeAgainstOracleUnderShotSeeds:
    def test_tape_matches_the_dense_oracle_shot_for_shot(self):
        architecture = _architecture()
        compiled = architecture.compiled_query()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        seeds = ShotSeeds(seed=3, point_index=1)
        assert_tape_matches_oracle(
            compiled.circuit, compiled.input_state, noise, 8, seeds
        )
