"""Unit tests for the Feynman-path simulator."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.sim import (
    FeynmanPathSimulator,
    GateNoiseModel,
    NoiselessModel,
    PathState,
    PauliChannel,
)


@pytest.fixture
def simulator() -> FeynmanPathSimulator:
    return FeynmanPathSimulator()


def _single_path(num_qubits: int, **assignment) -> PathState:
    mapping = {int(k[1:]): v for k, v in assignment.items()}
    return PathState.from_basis_assignments([(mapping, 1.0)], num_qubits)


class TestGateSemantics:
    def test_x_flips_bit(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        out = simulator.run(circuit, _single_path(1))
        assert out.bits[0, 0]

    def test_z_phases_only_one_states(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.z(0)
        on_zero = simulator.run(circuit, _single_path(1))
        on_one = simulator.run(circuit, _single_path(1, q0=1))
        assert np.isclose(on_zero.amplitudes[0], 1.0)
        assert np.isclose(on_one.amplitudes[0], -1.0)

    def test_y_flips_and_phases(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.y(0)
        on_zero = simulator.run(circuit, _single_path(1))
        on_one = simulator.run(circuit, _single_path(1, q0=1))
        assert on_zero.bits[0, 0] and np.isclose(on_zero.amplitudes[0], 1j)
        assert not on_one.bits[0, 0] and np.isclose(on_one.amplitudes[0], -1j)

    def test_s_and_t_phases(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.s(0)
        circuit.t(0)
        out = simulator.run(circuit, _single_path(1, q0=1))
        assert np.isclose(out.amplitudes[0], 1j * np.exp(1j * np.pi / 4))

    def test_cx_truth_table(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        assert not simulator.run(circuit, _single_path(2)).bits[0, 1]
        assert simulator.run(circuit, _single_path(2, q0=1)).bits[0, 1]

    def test_cswap_truth_table(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.cswap(0, 1, 2)
        inactive = simulator.run(circuit, _single_path(3, q1=1))
        active = simulator.run(circuit, _single_path(3, q0=1, q1=1))
        assert inactive.bits[0].tolist() == [False, True, False]
        assert active.bits[0].tolist() == [True, False, True]

    def test_mcx_requires_all_controls(self, simulator):
        circuit = QuantumCircuit(4)
        circuit.mcx([0, 1, 2], 3)
        partial = simulator.run(circuit, _single_path(4, q0=1, q1=1))
        full = simulator.run(circuit, _single_path(4, q0=1, q1=1, q2=1))
        assert not partial.bits[0, 3]
        assert full.bits[0, 3]

    def test_cz_phase(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        both = simulator.run(circuit, _single_path(2, q0=1, q1=1))
        one = simulator.run(circuit, _single_path(2, q0=1))
        assert np.isclose(both.amplitudes[0], -1.0)
        assert np.isclose(one.amplitudes[0], 1.0)

    def test_hadamard_branches(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        out = simulator.run(circuit, _single_path(1))
        assert out.as_dict() == pytest.approx(
            {(0,): 1 / np.sqrt(2), (1,): 1 / np.sqrt(2)}
        )

    def test_state_size_mismatch_rejected(self, simulator):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            simulator.run(circuit, _single_path(3))


class TestSuperpositionHandling:
    def test_paths_evolve_independently(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        state = PathState.register_superposition(2, register=[0])
        out = simulator.run(circuit, state)
        # |0>|0> stays, |1>|0> becomes |1>|1>
        produced = out.as_dict()
        assert set(produced) == {(0, 0), (1, 1)}

    def test_number_of_paths_is_preserved(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 2)
        state = PathState.register_superposition(3, register=[0, 1])
        out = simulator.run(circuit, state)
        assert out.num_paths == state.num_paths


class TestNoisyShots:
    def test_noiseless_model_gives_unit_fidelity(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        state = PathState.register_superposition(3, register=[0, 1])
        result = simulator.query_fidelities(
            circuit, state, NoiselessModel(), shots=8, rng=np.random.default_rng(0)
        )
        assert np.allclose(result.fidelities, 1.0)
        assert result.mean_fidelity == pytest.approx(1.0)
        assert result.std_error == pytest.approx(0.0)

    def test_certain_bit_flip_gives_zero_fidelity(self, simulator):
        """With p_x = 1 the single gate's operand is always flipped afterwards,
        so the output basis state never matches the ideal one."""
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = _single_path(2)
        noise = GateNoiseModel(PauliChannel(p_x=1.0))
        result = simulator.query_fidelities(
            circuit, state, noise, shots=16, rng=np.random.default_rng(1)
        )
        assert result.mean_fidelity == pytest.approx(0.0)

    def test_fidelity_decreases_with_error_rate(self, simulator):
        circuit = QuantumCircuit(4)
        for _ in range(5):
            circuit.cx(0, 1)
            circuit.ccx(1, 2, 3)
        state = PathState.register_superposition(4, register=[0, 1])
        rng = np.random.default_rng(7)
        low = simulator.query_fidelities(
            circuit, state, GateNoiseModel(PauliChannel.bit_flip(1e-3)), 256, rng=rng
        )
        high = simulator.query_fidelities(
            circuit, state, GateNoiseModel(PauliChannel.bit_flip(5e-2)), 256, rng=rng
        )
        assert high.mean_fidelity < low.mean_fidelity

    @pytest.mark.slow
    def test_vectorised_runner_matches_explicit_sampling(self, simulator):
        """The fast per-shot vectorised noise application must agree (statistically)
        with explicitly sampling noisy circuits one shot at a time."""
        from repro.sim import sample_noisy_circuit
        from repro.sim.fidelity import reduced_fidelity

        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        circuit.cx(0, 1)  # uncompute the ancilla so the ideal output is a product
        state = PathState.register_superposition(3, register=[0])
        noise = GateNoiseModel(PauliChannel(p_x=0.05, p_z=0.05))
        keep = [0, 2]

        fast = simulator.query_fidelities(
            circuit, state, noise, shots=3000, keep_qubits=keep,
            rng=np.random.default_rng(3),
        )

        ideal = simulator.run(circuit, state)
        rng = np.random.default_rng(4)
        slow_values = []
        for _ in range(3000):
            noisy_circuit = sample_noisy_circuit(circuit, noise, rng)
            noisy_out = simulator.run(noisy_circuit, state)
            slow_values.append(reduced_fidelity(ideal, noisy_out, keep))
        assert abs(fast.mean_fidelity - float(np.mean(slow_values))) < 0.03

    def test_shots_must_be_positive(self, simulator):
        circuit = QuantumCircuit(1)
        state = _single_path(1)
        with pytest.raises(ValueError):
            simulator.run_noisy_shots_recorded(
                circuit, state, NoiselessModel(), shots=0
            )
