"""Differential tests for the bit-sliced stacked shot executor.

The stacked executor keeps one Python ``int`` per qubit row and turns the
permutation gates into integer operations.  Its contract is byte identity
with the NumPy-bool block execution it replaced: the same bits, the same
``amps.tobytes()`` and the same recorded outcomes for any tape, any
pre-drawn randomness and any block width.  The NumPy-bool executor is kept
below as the reference, together with the frame helpers it used; it reads a
dense code block, which the executor gets as packed events
(:func:`tests.events.pack_events`).  A hypothesis property runs both over
random tapes that use every opcode (fused multi-gate groups, ``Z``/``X``
measurements, ``CPAULI`` frames with and without active shots, ``H``
branching with collapse strides) and random error codes that include
end-of-circuit events.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.ir import (
    OP_CPAULI,
    OP_H,
    OP_MEASURE,
    NoiseSiteTable,
    compile_circuit,
)
from repro.sim import PathState
from repro.sim.paths import PackedBits
from repro.sim.engine import (
    _apply_group,
    _apply_measure,
    _branch_hadamard_group,
    _collapse_flat_indices,
    _execute_stacked_shots,
    _pack_row,
    _pack_rows,
    _unpack_row,
    _unpack_rows,
)
from repro.sim.noise import PAULI_X, PAULI_Y, PAULI_Z, PauliChannel
from tests.events import pack_events

#: ``(shots, n_paths)`` pairs whose initial block widths straddle the 64-bit
#: word boundaries (1, 63, 64, 65) and reach a wide block (2048).
BLOCK_SHAPES = ((1, 1), (63, 1), (21, 3), (64, 1), (16, 4), (65, 1), (13, 5), (512, 4))


def _apply_error_event(
    bits_q: np.ndarray,
    amps: np.ndarray,
    qubit: int,
    shot: int,
    code: int,
    n_paths: int,
) -> None:
    """Apply one sampled Pauli error to a single shot's path block."""
    span = slice(shot * n_paths, (shot + 1) * n_paths)
    if code == PAULI_Z:
        segment = amps[span]
        segment[bits_q[qubit, span]] *= -1.0
    elif code == PAULI_X:
        bits_q[qubit, span] ^= True
    elif code == PAULI_Y:
        block = bits_q[qubit, span]
        amps[span] *= np.where(block, -1j, 1j)
        bits_q[qubit, span] = ~block


def _apply_frame(
    column: np.ndarray,
    amps: np.ndarray,
    pauli: str,
    active: np.ndarray,
    n_paths: int,
) -> None:
    """Apply a Pauli-frame correction to the shots where ``active`` is True."""
    if not np.any(active):
        return
    rows = np.repeat(active, n_paths)
    if pauli == "X":
        column[rows] ^= True
    elif pauli == "Z":
        mask = rows & column
        if np.any(mask):
            amps[mask] *= -1.0
    else:  # Y
        amps[rows] *= np.where(column[rows], -1j, 1j)
        column[rows] ^= True


def _frame_active(
    outcomes: np.ndarray | None, condition_bits: tuple[int, ...], shots: int
) -> np.ndarray:
    """Per-shot XOR of the recorded classical bits a ``CPAULI`` conditions on."""
    if outcomes is None or not condition_bits:
        return np.zeros(shots, dtype=bool)
    return (outcomes[list(condition_bits)].sum(axis=0) & 1).astype(bool)


def _reference_execute(tape, state, shots, sites, codes, measure_uniforms):
    """The NumPy-bool stacked executor, as it was before bit slicing."""
    n_paths = state.num_paths
    bits_q = np.tile(np.ascontiguousarray(state.bits.T), (1, shots))
    amps = np.tile(state.amplitudes, shots).astype(complex)

    if sites is not None:
        site_rows, event_shot = np.nonzero(codes)
        event_code = codes[site_rows, event_shot]
        event_qubit = sites.qubit[site_rows]
        event_group = sites.group_index[site_rows]
        bucket_starts = np.searchsorted(
            event_group, np.arange(len(tape.groups) + 2)
        )

    outcomes = None
    if tape.num_clbits:
        outcomes = np.zeros((tape.num_clbits, shots), dtype=np.int8)
    measure_cursor = 0

    for index, group in enumerate(tape.groups):
        if group.opcode == OP_MEASURE:
            cbit, basis = group.params
            outcomes[cbit], keep = _apply_measure(
                bits_q[int(group.qubits[0, 0])],
                amps,
                basis,
                measure_uniforms[measure_cursor],
                n_paths,
            )
            measure_cursor += 1
            stride = tape.collapse_strides[index]
            if stride:
                flat = _collapse_flat_indices(keep, shots, n_paths, stride)
                bits_q = bits_q[:, flat]
                amps = amps[flat]
                n_paths //= 2
        elif group.opcode == OP_CPAULI:
            _apply_frame(
                bits_q[int(group.qubits[0, 0])],
                amps,
                group.params[0],
                _frame_active(outcomes, group.params[1:], shots),
                n_paths,
            )
        elif group.opcode == OP_H:
            bits_q, amps, n_paths = _branch_hadamard_group(
                bits_q, amps, group.qubits, n_paths
            )
        else:
            _apply_group(bits_q, amps, group.opcode, group.qubits)
        if sites is not None:
            for event in range(bucket_starts[index], bucket_starts[index + 1]):
                _apply_error_event(
                    bits_q,
                    amps,
                    int(event_qubit[event]),
                    int(event_shot[event]),
                    int(event_code[event]),
                    n_paths,
                )
    if sites is not None:
        final_bucket = len(tape.groups)
        for event in range(
            bucket_starts[final_bucket], bucket_starts[final_bucket + 1]
        ):
            _apply_error_event(
                bits_q,
                amps,
                int(event_qubit[event]),
                int(event_shot[event]),
                int(event_code[event]),
                n_paths,
            )
    return np.ascontiguousarray(bits_q.T), amps, outcomes


# ------------------------------------------------------------------ strategy
_ARITY = {"CX": 2, "CZ": 2, "SWAP": 2, "CCX": 3, "CSWAP": 3}
_ONE_QUBIT = ("X", "Y", "Z", "S", "SDG", "T", "TDG", "I")


@st.composite
def random_tapes(draw):
    """A random circuit over every opcode, compiled to its fused tape."""
    num_qubits = draw(st.integers(3, 6))
    circuit = QuantumCircuit(num_qubits)
    h_budget = 3
    measured: list[int] = []
    for _ in range(draw(st.integers(1, 18))):
        kind = draw(
            st.sampled_from(
                (*_ONE_QUBIT, *_ARITY, "MCX", "H", "BRANCH", "MEASURE", "CPAULI")
            )
        )
        if kind == "H" or kind == "BRANCH":
            if h_budget == 0:
                continue
            h_budget -= 1
            qubit = draw(st.integers(0, num_qubits - 1))
            circuit.h(qubit)
            if kind == "BRANCH":
                # Branch-and-collapse block: the Z-measure of the branched
                # qubit gets a compile-time collapse stride.
                target = draw(st.integers(0, num_qubits - 1))
                if target != qubit:
                    circuit.cx(qubit, target)
                measured.append(circuit.measure(qubit, basis="Z"))
        elif kind == "MEASURE":
            qubit = draw(st.integers(0, num_qubits - 1))
            basis = draw(st.sampled_from(("Z", "X")))
            measured.append(circuit.measure(qubit, basis=basis))
        elif kind == "CPAULI":
            qubit = draw(st.integers(0, num_qubits - 1))
            pauli = draw(st.sampled_from(("X", "Y", "Z")))
            # Conditions on recorded bits make some shots active; one on an
            # unwritten gap slot makes none.
            pool = [*measured, circuit.num_clbits + 2]
            condition = draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
            )
            circuit.cpauli(pauli, qubit, condition)
        else:
            # A run of the same gate on disjoint qubits fuses into one group.
            arity = _ARITY.get(kind, 1)
            if kind == "MCX":
                arity = draw(st.integers(2, min(4, num_qubits)))
            order = draw(st.permutations(range(num_qubits)))
            copies = draw(st.integers(1, num_qubits // arity))
            for copy in range(copies):
                qubits = order[copy * arity : (copy + 1) * arity]
                if kind == "MCX":
                    circuit.mcx(qubits[:-1], qubits[-1])
                else:
                    circuit.add(kind, *qubits)
    return compile_circuit(circuit)


@st.composite
def executor_cases(draw):
    """A tape, an input state and pre-drawn randomness for one shot block."""
    tape = draw(random_tapes())
    shots, n_paths = draw(st.sampled_from(BLOCK_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = PathState(
        bits=rng.random((n_paths, tape.num_qubits)) < 0.5,
        amplitudes=rng.normal(size=n_paths) + 1j * rng.normal(size=n_paths),
    )
    n_sites = draw(st.integers(0, 12))
    n_final = draw(st.integers(0, 3))
    groups = np.sort(rng.integers(0, len(tape.groups) + 1, size=n_sites))
    group_index = np.concatenate(
        [groups, np.full(n_final, len(tape.groups))]
    ).astype(np.int32)
    qubit = rng.integers(0, tape.num_qubits, size=n_sites + n_final).astype(
        np.int32
    )
    sites = NoiseSiteTable(
        gate_index=np.zeros_like(group_index),
        qubit=qubit,
        group_index=group_index,
        channels=(PauliChannel(p_x=0.1),) * (n_sites + n_final),
    )
    # Mostly identity codes, like a real draw, with X/Y/Z events mixed in.
    codes = rng.choice(
        4, size=(n_sites + n_final, shots), p=(0.7, 0.1, 0.1, 0.1)
    ).astype(np.int8)
    measure_uniforms = rng.random((tape.num_measurements, shots))
    return tape, state, shots, sites, codes, measure_uniforms


def _assert_identical(expected, actual):
    packed, amps, outcomes = actual
    ref_bits, ref_amps, ref_outcomes = expected
    assert isinstance(packed, PackedBits) and packed.shape == ref_bits.shape
    bits = np.asarray(packed)
    assert bits.dtype == ref_bits.dtype and bits.shape == ref_bits.shape
    assert np.array_equal(bits, ref_bits)
    assert amps.tobytes() == ref_amps.tobytes()
    if ref_outcomes is None:
        assert outcomes is None
    else:
        assert np.array_equal(outcomes, ref_outcomes)


class TestBitSlicedExecutor:
    @settings(max_examples=150, deadline=None)
    @given(case=executor_cases())
    def test_matches_numpy_bool_reference(self, case):
        """Bits, amplitude bytes and outcomes equal the NumPy-bool executor's."""
        tape, state, shots, sites, codes, uniforms = case
        expected = _reference_execute(tape, state, shots, sites, codes, uniforms)
        actual = _execute_stacked_shots(
            tape, state, shots, sites, pack_events(codes), uniforms
        )
        _assert_identical(expected, actual)

    @settings(max_examples=40, deadline=None)
    @given(case=executor_cases())
    def test_noiseless_matches_reference(self, case):
        """Without a site table the executor still matches the reference."""
        tape, state, shots, _, _, uniforms = case
        expected = _reference_execute(tape, state, shots, None, None, uniforms)
        actual = _execute_stacked_shots(tape, state, shots, None, None, uniforms)
        _assert_identical(expected, actual)

    def test_wide_block_with_every_opcode(self):
        """One fixed wide block (2048 columns) through every opcode family."""
        circuit = QuantumCircuit(6)
        circuit.x(0)
        circuit.cswap(0, 1, 2)
        circuit.swap(3, 4)
        circuit.cx(0, 5)
        circuit.ccx(0, 5, 3)
        circuit.mcx([0, 3, 5], 1)
        circuit.h(2)
        circuit.cx(2, 4)
        circuit.measure(2, basis="Z")
        measured = circuit.measure(4, basis="X")
        circuit.cpauli("X", 1, [measured])
        circuit.cpauli("Y", 3, [measured])
        circuit.cpauli("Z", 0, [measured])
        circuit.z(0)
        circuit.z(1)
        circuit.cz(3, 5)
        circuit.y(0)
        circuit.s(1)
        circuit.sdg(2)
        circuit.t(3)
        circuit.tdg(4)
        tape = compile_circuit(circuit)
        assert any(tape.collapse_strides)
        rng = np.random.default_rng(5)
        shots, n_paths = 512, 4
        state = PathState(
            bits=rng.random((n_paths, 6)) < 0.5,
            amplitudes=np.full(n_paths, 0.5, dtype=complex),
        )
        n_sites = 40
        sites = NoiseSiteTable(
            gate_index=np.zeros(n_sites, dtype=np.int32),
            qubit=rng.integers(0, 6, size=n_sites).astype(np.int32),
            group_index=np.sort(
                rng.integers(0, len(tape.groups) + 1, size=n_sites)
            ).astype(np.int32),
            channels=(PauliChannel(p_z=0.1),) * n_sites,
        )
        codes = rng.choice(4, size=(n_sites, shots), p=(0.9, 0.03, 0.03, 0.04))
        uniforms = rng.random((tape.num_measurements, shots))
        expected = _reference_execute(tape, state, shots, sites, codes, uniforms)
        actual = _execute_stacked_shots(
            tape, state, shots, sites, pack_events(codes), uniforms
        )
        _assert_identical(expected, actual)

    def test_fixed_outcome_z_measure_clears_negative_zeros(self):
        """A Z measure whose outcome is certain still runs its amplitude pass.

        Every shot measures ``0`` on qubit 1 and ``1`` on qubit 2, so each
        shot's renormalising scale is exactly ``1.0``.  The pass is not a
        no-op all the same: ``amps *= keep * scale`` multiplies by
        ``1+0j``, which turns ``0-0j`` into ``0+0j`` (and ``-0-0j`` into
        ``0+0j`` over the two passes).  Skipping it for a unit scale would
        break byte identity.
        """
        circuit = QuantumCircuit(3)
        circuit.measure(1, basis="Z")
        circuit.measure(2, basis="Z")
        tape = compile_circuit(circuit)
        bits = np.zeros((4, 3), dtype=bool)
        bits[:, 0] = [False, True, False, True]
        bits[:, 2] = True
        state = PathState(
            bits=bits,
            amplitudes=np.array(
                [
                    complex(0.0, -0.0),
                    complex(-0.0, -0.0),
                    complex(0.6, -0.0),
                    complex(-0.8, 0.0),
                ]
            ),
        )
        assert np.signbit(state.amplitudes.imag).sum() == 3
        shots = 5
        uniforms = np.random.default_rng(2).random((tape.num_measurements, shots))
        expected = _reference_execute(tape, state, shots, None, None, uniforms)
        actual = _execute_stacked_shots(tape, state, shots, None, None, uniforms)
        _assert_identical(expected, actual)
        _, amps, outcomes = actual
        assert outcomes.tolist() == [[0] * shots, [1] * shots]
        assert not np.signbit(amps.imag).any()
        unit_passes = np.tile(state.amplitudes, shots)
        for _ in range(tape.num_measurements):
            unit_passes *= np.ones(unit_passes.shape)
        assert amps.tobytes() == unit_passes.tobytes()


class TestRowPacking:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 2048])
    def test_round_trip_at_word_boundaries(self, width):
        """pack then unpack returns the block, with bit j in column j."""
        rng = np.random.default_rng(width)
        block = rng.random((5, width)) < 0.5
        block[0] = True  # a full row: the top bit sits at the boundary
        block[1] = False
        rows = _pack_rows(block)
        assert rows[0] == (1 << width) - 1
        assert rows[1] == 0
        for row, values in zip(rows, block):
            assert row == sum(1 << j for j in np.flatnonzero(values).tolist())
        unpacked = _unpack_rows(rows, width)
        assert unpacked.dtype == bool and unpacked.shape == (5, width)
        assert np.array_equal(unpacked, block)
        unpacked[0, 0] = False  # the unpacked block is a fresh writable array
        assert np.array_equal(_unpack_rows(rows, width), block)
        for row, values in zip(rows, block):
            assert _pack_row(values) == row
            single = _unpack_row(row, width)
            assert single.dtype == bool and np.array_equal(single, values)
            single[:] = ~single  # writable, and detached from the row
        assert np.array_equal(_unpack_rows(rows, width), block)

    def test_empty_row_list(self):
        """Zero rows pack and unpack to empty blocks."""
        assert _pack_rows(np.zeros((0, 9), dtype=bool)) == []
        assert _unpack_rows([], 9).shape == (0, 9)
