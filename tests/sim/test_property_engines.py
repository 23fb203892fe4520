"""Property-based checks of the tape engine over random circuits and noise.

Under a fixed per-shot seed every noisy ``feynman-tape`` shot must equal the
independent dense oracle of :mod:`tests.oracle` (the same shot's Paulis,
drawn from the noise model and inserted after their gates, simulated
densely), and noiseless runs must agree exactly with the dense statevector
simulator.  These properties are the foundation the scenario sweeps stand
on, so they are exercised here with hypothesis over random QRAM-gate-set
circuits and random :class:`GateNoiseModel` parameters (the fixed
``repro-ci`` profile in ``tests/conftest.py`` keeps CI deterministic).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    FeynmanPathSimulator,
    PathState,
    ShotSeeds,
    StatevectorSimulator,
    with_idle_noise,
)
from repro.sim.noise import PauliChannel
from tests.conftest import gate_noise_models, random_reversible_circuits
from tests.oracle import assert_tape_matches_oracle


def _superposition_input(circuit) -> PathState:
    register = list(range(min(3, circuit.num_qubits)))
    return PathState.register_superposition(circuit.num_qubits, register)


class TestSeededTrajectoriesAgainstTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=6, max_gates=18),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_tape_matches_the_oracle(self, circuit, noise, seed):
        """Every shot of a ShotSeeds window equals its dense oracle shot."""
        state = _superposition_input(circuit)
        assert_tape_matches_oracle(circuit, state, noise, 8, ShotSeeds(seed=seed))

    @settings(max_examples=20, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=5, max_gates=14),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_idle_extended_models_match_the_oracle(self, circuit, noise, seed):
        """Schedule-aware idle sites, end-of-circuit ones included, match too."""
        state = _superposition_input(circuit)
        model = with_idle_noise(noise, circuit, PauliChannel.phase_flip(0.1))
        assert_tape_matches_oracle(circuit, state, model, 6, ShotSeeds(seed=seed))

    @settings(max_examples=20, deadline=None)
    @given(
        random_reversible_circuits(max_qubits=5, max_gates=14),
        gate_noise_models(),
        st.integers(0, 2**31 - 1),
    )
    def test_sharding_invariance(self, circuit, noise, seed):
        """Any split of the shot range reproduces the unsharded draw."""
        state = _superposition_input(circuit)
        shots = 6
        sim = FeynmanPathSimulator()
        bits_all, amps_all, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, shots, rng=ShotSeeds(seed=seed)
        )
        split = 2
        bits_a, amps_a, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, split, rng=ShotSeeds(seed=seed)
        )
        bits_b, amps_b, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, shots - split, rng=ShotSeeds(seed=seed, start=split)
        )
        assert np.array_equal(bits_all, np.vstack([bits_a, bits_b]))
        assert np.array_equal(amps_all, np.concatenate([amps_a, amps_b]))


class TestNoiselessStatevectorAgreement:
    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(random_reversible_circuits(max_qubits=6, max_gates=18))
    def test_engines_match_dense_amplitudes(self, circuit):
        """Noiseless Feynman runs reproduce statevector amplitudes exactly."""
        state = _superposition_input(circuit)
        dense = StatevectorSimulator().run(circuit, state)
        output = FeynmanPathSimulator().run(circuit, state)
        assert np.allclose(output.to_statevector(), dense, atol=1e-9)
