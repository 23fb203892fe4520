"""Dual-rail erasure-detecting encoding with postselected parity checks.

Each logical qubit ``q`` becomes two physical *rails* ``(2 q, 2 q + 1)``
holding ``|0>_L = |10>`` and ``|1>_L = |01>`` -- the photonic/superconducting
dual-rail code whose single-rail ``X``/``Y`` errors leave the codespace
(pair parity ``r0 XOR r1`` drops from 1 to 0) and are therefore *detectable
erasures*, while ``Z`` on the occupied rail is the one undetectable logical
phase error.  The transform rewrites the Feynman-simulable QRAM gate set
into parity-preserving dual-rail gadgets:

========  ==========================================================
logical   dual-rail gadget
========  ==========================================================
``X``     ``SWAP(r0, r1)`` -- a rail swap
``Y``     ``SWAP(r0, r1)`` then ``S(r1)``, ``SDG(r0)`` (exact phases)
``Z``     ``Z(r1)``
``S-4``   ``S``/``SDG``/``T``/``TDG`` on ``r1`` (phase on occupied rail)
``CX``    ``CSWAP(c1, t0, t1)`` -- the router-style controlled rail swap
``CZ``    ``CZ(a1, b1)``
``SWAP``  ``SWAP(a0, b0)``, ``SWAP(a1, b1)``
``CSWAP`` ``CSWAP(c1, a0, b0)``, ``CSWAP(c1, a1, b1)``
``CCX``   ``CX(t1, t0)``, ``MCX([a1, b1, t0], t1)``, ``CX(t1, t0)``
``MCX``   same ladder with every control's ``1``-rail (plus ``t0``)
``I``     ``I(r0)``, ``I(r1)``
========  ==========================================================

Every gadget preserves **every** pair parity unconditionally -- for the
``CCX`` ladder: ``t0'' XOR t1' = (t0 XOR t1)`` algebraically, controls
untouched -- so along any Feynman path the final parity vector equals
all-ones XOR the accumulated single-rail bit flips.  Pauli noise applies
per *shot* (uniformly across that shot's paths), hence each parity-check
outcome is path-uniform: the engines' true-marginal ``Z`` measurement
computes ``p0`` exactly ``0.0`` or ``1.0`` in floating point and projects
with scale exactly ``1.0``.  Postselected fidelities are therefore exact
per kept shot, and at zero noise every check passes -- ``kept_fraction ==
1.0`` with the transformed circuit statevector-equivalent to the logical
one under :meth:`DualRailExpansion.map_state`.

Checks are emitted with the :mod:`repro.circuit.feedforward` measure-and-
reset idiom: per logical qubit a parity ancilla accumulates ``r0 XOR r1``
through two CXs, is measured into its own classical slot and frame-reset
to ``|0>``; optional *flag* rounds interleave a global parity probe (XOR of
every rail, expected ``n mod 2``) inside the circuit body, catching mid-
circuit erasures whose rail has already routed elsewhere by circuit end.
:attr:`DualRailExpansion.postselect` lists every ``(cbit, expected)`` pair
-- the postselection mask :meth:`~repro.sim.engine.FeynmanPathSimulator.
query_fidelities` partitions shots by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.sim.paths import PathState

__all__ = ["CHECK_TAG", "DualRailExpansion", "encode_dual_rail", "rail_pair"]

#: Tag carried by every check instruction (ancilla CXs, measurements,
#: frame resets) the transform inserts, so resource accounting can split
#: detection overhead from the encoded computation.
CHECK_TAG = "dual-rail-check"

#: Gates the transform rewrites; anything else (``H`` branches out of the
#: codespace, ``MEASURE``/``CPAULI`` would need a logical-readout gadget)
#: is refused outright rather than silently mangled.
_ENCODABLE = frozenset(
    {
        "I",
        "X",
        "Y",
        "Z",
        "S",
        "SDG",
        "T",
        "TDG",
        "CX",
        "CZ",
        "SWAP",
        "CSWAP",
        "CCX",
        "MCX",
    }
)


def rail_pair(qubit: int) -> tuple[int, int]:
    """Physical rail indices ``(2 q, 2 q + 1)`` of logical qubit ``q``."""
    return 2 * qubit, 2 * qubit + 1


@dataclass(frozen=True)
class DualRailExpansion:
    """A logical circuit encoded into dual-rail gadgets plus parity checks.

    Attributes
    ----------
    circuit:
        The encoded circuit: rails first (logical ``q`` on ``2 q`` and
        ``2 q + 1``), then one parity ancilla per logical qubit, then the
        shared flag ancilla when ``flag_rounds > 0``.
    num_logical:
        Number of logical qubits of the source circuit.
    checks:
        ``(cbit, expected_outcome)`` of the end-of-circuit per-qubit parity
        checks, in logical-qubit order (expected outcome is always ``1``).
    flag_checks:
        ``(cbit, expected_outcome)`` of the interleaved global-parity flag
        probes (expected ``num_logical mod 2``); empty without flag rounds.
    """

    circuit: QuantumCircuit
    num_logical: int
    checks: tuple[tuple[int, int], ...]
    flag_checks: tuple[tuple[int, int], ...]

    @property
    def postselect(self) -> tuple[tuple[int, int], ...]:
        """Every check's ``(cbit, expected)`` pair -- the keep condition."""
        return self.checks + self.flag_checks

    def map_state(self, state: PathState) -> PathState:
        """Encode a logical :class:`PathState` onto the rails.

        Bit ``b`` of a logical qubit becomes rails ``(not b, b)`` -- the
        ``|10>`` / ``|01>`` codewords -- and every ancilla starts in
        ``|0>``.  Amplitudes carry over unchanged: the encoding is a basis
        relabelling, so this maps ideal inputs and ideal outputs alike.
        """
        if state.num_qubits != self.num_logical:
            raise ValueError(
                f"state has {state.num_qubits} qubits, expansion encodes "
                f"{self.num_logical} logical qubits"
            )
        bits = np.zeros((state.num_paths, self.circuit.num_qubits), dtype=bool)
        rails = 2 * self.num_logical
        bits[:, 0:rails:2] = ~state.bits
        bits[:, 1:rails:2] = state.bits
        return PathState(bits=bits, amplitudes=state.amplitudes.copy())


class _Encoder:
    """Single-pass gadget rewriter: the output circuit plus check records."""

    def __init__(self, source: QuantumCircuit, *, flag_rounds: int) -> None:
        self.n = source.num_qubits
        self.flag_ancilla = 3 * self.n if flag_rounds > 0 else None
        num_qubits = 3 * self.n + (1 if flag_rounds > 0 else 0)
        self.out = QuantumCircuit(
            num_qubits=num_qubits, metadata=dict(source.metadata)
        )
        self.checks: list[tuple[int, int]] = []
        self.flag_checks: list[tuple[int, int]] = []

    # ------------------------------------------------------------- gadgets
    def encode_instruction(self, instr: Instruction) -> None:
        """Rewrite one logical instruction into its dual-rail gadget."""
        if instr.is_barrier:
            rails = tuple(r for q in instr.qubits for r in rail_pair(q))
            self.out.barrier(*rails)
            return
        gate = instr.gate
        if gate not in _ENCODABLE:
            raise ValueError(
                f"gate {gate} has no dual-rail gadget; the transform encodes "
                "the permutation/phase QRAM gate set only"
            )
        kw = {"tags": instr.tags}
        if gate in ("I", "X", "Y", "Z", "S", "SDG", "T", "TDG"):
            r0, r1 = rail_pair(instr.qubits[0])
            if gate == "I":
                self.out.i(r0, **kw)
                self.out.i(r1, **kw)
            elif gate == "X":
                self.out.swap(r0, r1, **kw)
            elif gate == "Y":
                # Y = i X Z on the logical level: rail swap plus the exact
                # +-i phases (S on the new occupied rail, SDG on the other).
                self.out.swap(r0, r1, **kw)
                self.out.s(r1, **kw)
                self.out.sdg(r0, **kw)
            elif gate == "Z":
                self.out.z(r1, **kw)
            else:  # S / SDG / T / TDG phase the occupied (|1>_L) rail.
                self.out.add(gate, r1, **kw)
        elif gate == "CX":
            control_1 = rail_pair(instr.qubits[0])[1]
            t0, t1 = rail_pair(instr.qubits[1])
            self.out.cswap(control_1, t0, t1, **kw)
        elif gate == "CZ":
            a1 = rail_pair(instr.qubits[0])[1]
            b1 = rail_pair(instr.qubits[1])[1]
            self.out.cz(a1, b1, **kw)
        elif gate == "SWAP":
            a0, a1 = rail_pair(instr.qubits[0])
            b0, b1 = rail_pair(instr.qubits[1])
            self.out.swap(a0, b0, **kw)
            self.out.swap(a1, b1, **kw)
        elif gate == "CSWAP":
            control_1 = rail_pair(instr.qubits[0])[1]
            a0, a1 = rail_pair(instr.qubits[1])
            b0, b1 = rail_pair(instr.qubits[2])
            self.out.cswap(control_1, a0, b0, **kw)
            self.out.cswap(control_1, a1, b1, **kw)
        else:  # CCX / MCX: the controlled rail swap as an MCX ladder.
            controls = [rail_pair(q)[1] for q in instr.qubits[:-1]]
            t0, t1 = rail_pair(instr.qubits[-1])
            # CX(t1,t0); MCX(controls + [t0], t1); CX(t1,t0) swaps the
            # target rails iff every control's 1-rail is set, and restores
            # t0'' = t0 XOR (and(controls) AND (t0 XOR t1)) otherwise --
            # pair parity t0'' XOR t1' == t0 XOR t1 identically.
            self.out.cx(t1, t0, **kw)
            self.out.mcx([*controls, t0], t1, **kw)
            self.out.cx(t1, t0, **kw)

    # -------------------------------------------------------------- checks
    def emit_parity_checks(self) -> None:
        """End-of-circuit per-qubit parity checks onto fresh ancillas."""
        for q in range(self.n):
            r0, r1 = rail_pair(q)
            ancilla = 2 * self.n + q
            self.out.cx(r0, ancilla, tags=(CHECK_TAG,))
            self.out.cx(r1, ancilla, tags=(CHECK_TAG,))
            cbit = self.out.measure(ancilla, tags=(CHECK_TAG,))
            self.out.cpauli("X", ancilla, [cbit], tags=(CHECK_TAG,))
            self.checks.append((cbit, 1))

    def emit_flag_check(self) -> None:
        """Mid-circuit global-parity probe: XOR of every rail onto the flag."""
        flag = self.flag_ancilla
        for rail in range(2 * self.n):
            self.out.cx(rail, flag, tags=(CHECK_TAG,))
        cbit = self.out.measure(flag, tags=(CHECK_TAG,))
        self.out.cpauli("X", flag, [cbit], tags=(CHECK_TAG,))
        self.flag_checks.append((cbit, self.n & 1))


def encode_dual_rail(
    circuit: QuantumCircuit, *, flag_rounds: int = 0
) -> DualRailExpansion:
    """Encode ``circuit`` into dual-rail gadgets with postselected checks.

    The source circuit must stay inside the permutation/phase gate set the
    gadget table covers (``H``, ``MEASURE`` and ``CPAULI`` raise
    ``ValueError``).  ``flag_rounds`` interleaves that many global-parity
    flag probes at evenly spaced points of the circuit body -- each costs
    ``2 n`` CXs onto the shared flag ancilla but catches erasures that a
    later router ``CSWAP`` would have moved off the originally struck pair.

    Returns a :class:`DualRailExpansion` whose circuit the noisy Feynman-path
    simulator executes directly: check outcomes come from each shot's seeded
    stream (deterministically, see the module docstring), and
    :attr:`~DualRailExpansion.postselect` feeds straight into
    :meth:`~repro.sim.engine.FeynmanPathSimulator.query_fidelities`.
    """
    if flag_rounds < 0:
        raise ValueError("flag_rounds must be non-negative")
    encoder = _Encoder(circuit, flag_rounds=flag_rounds)
    body = list(circuit.instructions)
    # Evenly spaced flag points: probe r of R lands after logical
    # instruction (r + 1) * len(body) / (R + 1) (rounded down), splitting
    # the body into R + 1 roughly equal spans.  The sorted-position cursor
    # keeps the probe count exact even when positions coincide (short
    # bodies) or land at position 0 (empty bodies).
    positions = sorted(
        (round_index + 1) * len(body) // (flag_rounds + 1)
        for round_index in range(flag_rounds)
    )
    cursor = 0
    while cursor < len(positions) and positions[cursor] == 0:
        encoder.emit_flag_check()
        cursor += 1
    for index, instr in enumerate(body):
        encoder.encode_instruction(instr)
        while cursor < len(positions) and positions[cursor] <= index + 1:
            encoder.emit_flag_check()
            cursor += 1
    encoder.emit_parity_checks()
    return DualRailExpansion(
        circuit=encoder.out,
        num_logical=circuit.num_qubits,
        checks=tuple(encoder.checks),
        flag_checks=tuple(encoder.flag_checks),
    )
