"""Dense statevector reference simulator.

This simulator exists for two reasons:

1. **Cross-validation.**  The Feynman-path simulator is the workhorse of the
   reproduction; every architectural claim rests on it being correct.  The
   test suite therefore runs every small QRAM circuit on both simulators and
   requires the outputs to match.

2. **Scaling baseline.**  Section 6.2 of the paper argues that path simulation
   scales to QRAM sizes that dense simulation cannot reach; the
   ``bench_simulator_scaling`` benchmark measures the two engines against each
   other to reproduce that claim.

The implementation executes the circuit's compiled
:class:`~repro.circuit.ir.GateTape` -- the same IR the Feynman engine runs --
dispatching on integer opcodes: basis-permutation gates by index arithmetic
and the remaining single-qubit gates (``H``, ``S``, ``T``, ``Y``, ``Z``) by a
reshaped matrix product, so it supports every gate in the registry.  Qubit
``q`` corresponds to bit ``q`` of the basis-state index (little-endian).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.ir import (
    OP_CCX,
    OP_CPAULI,
    OP_CSWAP,
    OP_CX,
    OP_CZ,
    OP_H,
    OP_MCX,
    OP_MEASURE,
    OP_NOP,
    OP_S,
    OP_SDG,
    OP_SWAP,
    OP_T,
    OP_TDG,
    OP_X,
    OP_Y,
    OP_Z,
    OPCODE_NAMES,
    compile_circuit,
)
from repro.sim.paths import PathState

_MAX_DENSE_QUBITS = 22

#: Single-qubit unitaries applied via the reshaped matrix product, by opcode.
_OPCODE_MATRICES = {
    OP_X: np.array([[0, 1], [1, 0]], dtype=complex),
    OP_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    OP_Z: np.array([[1, 0], [0, -1]], dtype=complex),
    OP_H: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    OP_S: np.array([[1, 0], [0, 1j]], dtype=complex),
    OP_SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    OP_T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    OP_TDG: np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}

#: Pauli label -> opcode, for CPAULI frame corrections.
_PAULI_OPCODES = {"X": OP_X, "Y": OP_Y, "Z": OP_Z}


class StatevectorSimulator:
    """Dense simulator for circuits on at most ``22`` qubits."""

    def __init__(self, max_qubits: int = _MAX_DENSE_QUBITS):
        self.max_qubits = max_qubits

    # -------------------------------------------------------------- public API
    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: PathState | np.ndarray | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return the final statevector of ``circuit``.

        ``initial_state`` may be a :class:`PathState`, a dense vector of length
        ``2**num_qubits`` or ``None`` (all qubits in |0>).  ``rng`` supplies
        mid-circuit measurement outcomes (sampled from the exact Born
        probabilities); ``None`` uses a fixed ``default_rng(0)`` stream so
        runs stay deterministic.  Circuits without measurements never consume
        randomness.
        """
        n = circuit.num_qubits
        if n > self.max_qubits:
            raise ValueError(
                f"{n} qubits exceeds the dense simulation limit of {self.max_qubits}"
            )
        psi = self._initial_vector(circuit, initial_state)
        tape = compile_circuit(circuit)
        outcomes: np.ndarray | None = None
        if tape.num_clbits:
            outcomes = np.zeros(tape.num_clbits, dtype=np.int8)
            if rng is None:
                rng = np.random.default_rng(0)
        for group in tape.groups:
            opcode = group.opcode
            if opcode == OP_NOP:
                continue
            if opcode == OP_MEASURE:
                cbit, basis = group.params
                psi, outcomes[cbit] = self._measure(
                    psi, int(group.qubits[0, 0]), basis, rng
                )
                continue
            if opcode == OP_CPAULI:
                pauli = group.params[0]
                parity = int(outcomes[list(group.params[1:])].sum()) & 1
                if parity:
                    psi = self._apply_single_matrix(
                        psi,
                        _OPCODE_MATRICES[_PAULI_OPCODES[pauli]],
                        int(group.qubits[0, 0]),
                    )
                continue
            for row in group.qubits:
                psi = self._apply_op(psi, opcode, row)
        return psi

    def run_to_path_state(
        self,
        circuit: QuantumCircuit,
        initial_state: PathState | np.ndarray | None = None,
        tolerance: float = 1e-12,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Run and convert the (sparse) output back into a :class:`PathState`."""
        psi = self.run(circuit, initial_state, rng=rng)
        n = circuit.num_qubits
        indices = np.nonzero(np.abs(psi) > tolerance)[0]
        bits = ((indices[:, None] >> np.arange(n)) & 1).astype(bool)
        return PathState(bits=bits, amplitudes=psi[indices])

    def _measure(
        self, psi: np.ndarray, qubit: int, basis: str, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        """Project ``qubit`` onto a sampled outcome; return ``(psi, outcome)``.

        X-basis measurements rotate into the computational basis first and,
        matching the Feynman engine's convention, leave the qubit in the
        computational state ``|m>`` (hardware re-initialises measured qubits
        from the classical record).
        """
        if basis == "X":
            psi = self._apply_single_matrix(psi, _OPCODE_MATRICES[OP_H], qubit)
        indices = np.arange(len(psi), dtype=np.int64)
        mask1 = ((indices >> qubit) & 1).astype(bool)
        weight1 = float(np.sum(np.abs(psi[mask1]) ** 2))
        total = float(np.sum(np.abs(psi) ** 2))
        p0 = (total - weight1) / total if total > 0.0 else 1.0
        outcome = 0 if rng.random() < p0 else 1
        keep = mask1 if outcome else ~mask1
        p_m = weight1 / total if outcome else p0
        out = np.where(keep, psi, 0.0) / np.sqrt(p_m if p_m > 0.0 else 1.0)
        return out, outcome

    # ----------------------------------------------------------------- helpers
    def _initial_vector(
        self,
        circuit: QuantumCircuit,
        initial_state: PathState | np.ndarray | None,
    ) -> np.ndarray:
        n = circuit.num_qubits
        if initial_state is None:
            psi = np.zeros(2**n, dtype=complex)
            psi[0] = 1.0
            return psi
        if isinstance(initial_state, PathState):
            if initial_state.num_qubits != n:
                raise ValueError("initial state qubit count mismatch")
            return initial_state.to_statevector()
        psi = np.asarray(initial_state, dtype=complex)
        if psi.shape != (2**n,):
            raise ValueError(f"statevector must have length {2**n}")
        return psi.copy()

    def _apply_op(
        self, psi: np.ndarray, opcode: int, qubits: np.ndarray
    ) -> np.ndarray:
        matrix = _OPCODE_MATRICES.get(opcode)
        if matrix is not None:
            # Diagonal/permutation single-qubit gates could use index logic,
            # but the matrix route is equally exact and keeps one code path.
            return self._apply_single_matrix(psi, matrix, int(qubits[0]))
        indices = np.arange(len(psi), dtype=np.int64)
        if opcode == OP_CX:
            control, target = (int(q) for q in qubits)
            flip = ((indices >> control) & 1).astype(bool)
            return self._permute(psi, np.where(flip, indices ^ (1 << target), indices))
        if opcode == OP_CZ:
            control, target = (int(q) for q in qubits)
            mask = (((indices >> control) & 1) & ((indices >> target) & 1)).astype(bool)
            out = psi.copy()
            out[mask] *= -1
            return out
        if opcode == OP_SWAP:
            a, b = (int(q) for q in qubits)
            bit_a = (indices >> a) & 1
            bit_b = (indices >> b) & 1
            differ = (bit_a ^ bit_b).astype(bool)
            swapped = indices ^ (((1 << a) | (1 << b)) * differ)
            return self._permute(psi, swapped)
        if opcode == OP_CCX:
            c1, c2, target = (int(q) for q in qubits)
            active = (((indices >> c1) & 1) & ((indices >> c2) & 1)).astype(bool)
            return self._permute(psi, np.where(active, indices ^ (1 << target), indices))
        if opcode == OP_CSWAP:
            control, a, b = (int(q) for q in qubits)
            bit_a = (indices >> a) & 1
            bit_b = (indices >> b) & 1
            active = (((indices >> control) & 1) & (bit_a ^ bit_b)).astype(bool)
            swapped = indices ^ (((1 << a) | (1 << b)) * active)
            return self._permute(psi, swapped)
        if opcode == OP_MCX:
            controls, target = qubits[:-1], int(qubits[-1])
            active = np.ones(len(psi), dtype=bool)
            for c in controls:
                active &= ((indices >> int(c)) & 1).astype(bool)
            return self._permute(psi, np.where(active, indices ^ (1 << target), indices))
        raise ValueError(f"unsupported gate {OPCODE_NAMES.get(opcode, opcode)}")

    @staticmethod
    def _permute(psi: np.ndarray, new_indices: np.ndarray) -> np.ndarray:
        out = np.empty_like(psi)
        out[new_indices] = psi
        return out

    @staticmethod
    def _apply_single_matrix(psi: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
        n = psi.shape[0]
        stride = 1 << qubit
        reshaped = psi.reshape(n // (2 * stride), 2, stride)
        # axis 1 enumerates the value of `qubit`
        out = np.einsum("ab,ibj->iaj", matrix, reshaped)
        return out.reshape(n)
