"""Unit tests for the fidelity metrics (full-state and reduced)."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM
from repro.sim import (
    GateNoiseModel,
    PathState,
    PauliChannel,
    ShotSeeds,
    get_engine,
    reduced_fidelity,
    state_fidelity,
)
from repro.sim.fidelity import (
    _ideal_keep_amplitudes,
    _pack_rows,
    _packed_key_matrix,
    shot_fidelities,
)


def _state(assignments, num_qubits):
    return PathState.from_basis_assignments(assignments, num_qubits)


class TestStateFidelity:
    def test_identical_states(self):
        state = PathState.register_superposition(3, register=[0, 1])
        assert state_fidelity(state, state) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        a = _state([({0: 0}, 1.0)], 2)
        b = _state([({0: 1}, 1.0)], 2)
        assert state_fidelity(a, b) == pytest.approx(0.0)

    def test_global_phase_is_irrelevant(self):
        a = PathState.register_superposition(2, register=[0, 1])
        b = PathState(bits=a.bits.copy(), amplitudes=-a.amplitudes.copy())
        assert state_fidelity(a, b) == pytest.approx(1.0)

    def test_partial_overlap(self):
        a = PathState.register_superposition(1, register=[0])
        b = _state([({0: 0}, 1.0)], 1)
        assert state_fidelity(a, b) == pytest.approx(0.5)


class TestReducedFidelity:
    def test_error_confined_to_traced_register_is_harmless(self):
        """A leftover flip on an ancilla does not hurt the kept registers."""
        ideal = _state([({0: 0}, 1.0)], 2)
        noisy = _state([({0: 0, 1: 1}, 1.0)], 2)
        assert state_fidelity(ideal, noisy) == pytest.approx(0.0)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(1.0)

    def test_branch_dependent_junk_causes_decoherence(self):
        """If the ancilla ends in different states per branch, coherence is lost."""
        amp = 1 / np.sqrt(2)
        ideal = _state([({0: 0}, amp), ({0: 1}, amp)], 2)
        noisy = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 1}, amp)], 2)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(0.5)

    def test_phase_error_on_one_branch(self):
        amp = 1 / np.sqrt(2)
        ideal = _state([({0: 0}, amp), ({0: 1}, amp)], 1)
        noisy = _state([({0: 0}, amp), ({0: 1}, -amp)], 1)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(0.0)

    def test_entangled_ideal_output_rejected(self):
        amp = 1 / np.sqrt(2)
        entangled = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 1}, amp)], 2)
        noisy = _state([({0: 0}, 1.0)], 2)
        with pytest.raises(ValueError):
            reduced_fidelity(entangled, noisy, keep_qubits=[0])

    def test_keeping_everything_matches_full_fidelity(self):
        ideal = PathState.register_superposition(2, register=[0, 1])
        noisy = _state([({0: 0, 1: 0}, 1.0)], 2)
        reduced = reduced_fidelity(ideal, noisy, keep_qubits=[0, 1])
        assert reduced == pytest.approx(state_fidelity(ideal, noisy))


class TestShotFidelities:
    def test_block_of_identical_shots(self):
        ideal = PathState.register_superposition(2, register=[0])
        bits = np.tile(ideal.bits, (3, 1))
        amps = np.tile(ideal.amplitudes, 3)
        values = shot_fidelities(
            ideal, bits, amps, shots=3, n_paths=ideal.num_paths, keep_qubits=None
        )
        assert np.allclose(values, 1.0)

    def test_mixed_block(self):
        ideal = _state([({0: 0}, 1.0)], 1)
        good = ideal.bits
        bad = ~ideal.bits
        bits = np.vstack([good, bad])
        amps = np.array([1.0, 1.0], dtype=complex)
        values = shot_fidelities(ideal, bits, amps, shots=2, n_paths=1)
        assert values.tolist() == [1.0, 0.0]


def _reference_shot_fidelities(
    ideal, bits_block, amps_block, *, shots, n_paths, keep_qubits=None
):
    """The historical per-shot dict loop that ``shot_fidelities`` vectorised."""
    num_qubits = ideal.num_qubits
    if keep_qubits is None:
        keep_columns = list(range(num_qubits))
        rest_columns = []
    else:
        keep_columns = list(keep_qubits)
        rest_columns = [
            q for q in range(num_qubits) if q not in set(keep_columns)
        ]
    ideal_keep = _ideal_keep_amplitudes(ideal, keep_columns)
    fidelities = np.zeros(shots)
    for index in range(shots):
        rows = slice(index * n_paths, (index + 1) * n_paths)
        keep_keys = _pack_rows(bits_block[rows], keep_columns)
        rest_keys = _pack_rows(bits_block[rows], rest_columns)
        overlaps: dict[bytes, complex] = {}
        for keep_key, rest_key, amp in zip(
            keep_keys, rest_keys, amps_block[rows]
        ):
            ideal_amp = ideal_keep.get(keep_key)
            if ideal_amp is None:
                continue
            overlaps[rest_key] = (
                overlaps.get(rest_key, 0.0 + 0.0j) + np.conj(ideal_amp) * amp
            )
        fidelities[index] = sum(abs(value) ** 2 for value in overlaps.values())
    return fidelities


class TestVectorisedFidelity:
    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference_loop_bit_for_bit(self, reduced):
        architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
        compiled = architecture.compiled_query()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        shots = 24
        bits, amps = get_engine("feynman-tape").run_noisy_shots(
            compiled.circuit,
            compiled.input_state,
            noise,
            shots,
            rng=ShotSeeds(seed=13),
        )
        keep = list(compiled.kept_qubits) if reduced else None
        n_paths = compiled.input_state.num_paths
        vectorised = shot_fidelities(
            compiled.ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        reference = _reference_shot_fidelities(
            compiled.ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        assert np.array_equal(vectorised, reference)


def _qubit_major_view(bits):
    """The ``.T`` view of the qubit-major copy of a row-major bits block."""
    view = np.ascontiguousarray(bits.T).T
    assert view.flags.f_contiguous and not view.flags.c_contiguous
    return view


def _query_block(shots):
    architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
    compiled = architecture.compiled_query()
    bits, amps = get_engine("feynman-tape").run_noisy_shots(
        compiled.circuit,
        compiled.input_state,
        GateNoiseModel(PauliChannel.depolarizing(0.05)),
        shots,
        rng=ShotSeeds(seed=13),
    )
    return compiled.ideal_output, bits, amps, list(compiled.kept_qubits)


def _branching_block(shots):
    """A noisy ``H`` + ``CX`` circuit: two output paths per input path."""
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    # Noise on the traced qubit 2 splits a shot's rest-state buckets.
    circuit.x(2)
    circuit.x(2)
    state = PathState.from_basis_assignments([({}, 1.0)], 3)
    engine = get_engine("feynman-tape")
    bits, amps = engine.run_noisy_shots(
        circuit,
        state,
        GateNoiseModel(PauliChannel.depolarizing(0.2)),
        shots,
        rng=ShotSeeds(seed=5),
    )
    assert bits.shape[0] == 2 * shots
    return engine.run(circuit, state), bits, amps, [0, 1]


class TestQubitMajorLayout:
    @pytest.mark.parametrize(
        "case", ["full", "reduced", "postselected", "branching-full", "branching"]
    )
    def test_row_major_and_qubit_major_blocks_agree_bit_for_bit(self, case):
        shots = 24
        if case.startswith("branching"):
            ideal, bits, amps, keep = _branching_block(shots)
        else:
            ideal, bits, amps, keep = _query_block(shots)
        if case.endswith("full"):
            keep = None
        kept = None
        if case == "postselected":
            kept = np.random.default_rng(3).random(shots) < 0.6
        n_paths = bits.shape[0] // shots
        row_major = np.ascontiguousarray(bits)
        results = [
            shot_fidelities(
                ideal,
                block,
                amps,
                shots=shots,
                n_paths=n_paths,
                keep_qubits=keep,
                kept=kept,
            )
            for block in (row_major, _qubit_major_view(row_major))
        ]
        assert results[0].tobytes() == results[1].tobytes()
        if kept is not None:
            assert np.isnan(results[0]).sum() == (~kept).sum()

    def test_stacked_executor_returns_the_qubit_major_view(self):
        _, bits, _, _ = _query_block(4)
        assert bits.flags.f_contiguous and not bits.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["row-major", "qubit-major"])
    @pytest.mark.parametrize(
        "columns",
        [[], [5, 1, 4], [0, 2, 3, 7, 8, 11, 12, 13, 16, 19, 23], list(range(24))],
        ids=["empty", "below-8", "not-multiple-of-8", "full"],
    )
    def test_packed_key_matrix_matches_packbits(self, columns, layout):
        bits = np.random.default_rng(11).random((37, 24)) < 0.5
        if layout == "qubit-major":
            bits = _qubit_major_view(bits)
        expected = np.packbits(bits[:, columns], axis=1)
        packed = _packed_key_matrix(bits, columns)
        assert packed.dtype == np.uint8
        assert packed.shape == expected.shape
        assert np.array_equal(packed, expected)
