"""Gate registry for the QRAM circuit model.

Every gate used anywhere in the reproduction is declared here together with
the structural facts the rest of the library relies on:

* how many qubits it acts on (``None`` means variable arity, e.g. ``MCX``);
* whether it is a *classical reversible* gate, i.e. a permutation of
  computational basis states (the property that makes Feynman-path simulation
  efficient, Sec. 6.2 of the paper);
* whether it is a Clifford gate (used for Clifford-depth accounting in
  Table 2);
* whether it is diagonal in the computational basis (such gates only add
  phases along a path and never branch it);
* whether it is self-inverse, and if not, the name of its inverse;
* whether it is unitary at all -- ``MEASURE`` collapses its qubit and has no
  inverse, and ``CPAULI`` (a classically-controlled Pauli-frame correction)
  is only defined together with the measurement record it is conditioned on.

The registry is intentionally small: QRAM circuits only need classical
reversible gates plus Pauli errors, and the statevector reference simulator
additionally understands ``H``, ``S`` and ``T`` so that decomposed circuits
can be validated against it in the test suite.  Mid-circuit measurement
(``MEASURE``) and feedforward Pauli corrections (``CPAULI``) were added for
the executed teleportation links of Sec. 4.3: both stay inside the
Feynman-path-simulable set because a sampled measurement outcome turns the
projection into a per-path bit/phase update (see
:mod:`repro.sim.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Canonical upper-case gate name, e.g. ``"CSWAP"``.
    num_qubits:
        Fixed arity, or ``None`` for variable-arity gates (``MCX``).
    classical_reversible:
        True when the gate maps every computational basis state to a single
        computational basis state with a +1 phase (a permutation matrix).
    clifford:
        True when the gate is in the Clifford group.
    diagonal:
        True when the gate is diagonal in the computational basis.
    self_inverse:
        True when the gate is its own inverse.
    inverse_name:
        Name of the inverse gate (equals ``name`` for self-inverse gates).
    unitary:
        False for instructions that are not unitary operations on the
        quantum state: ``MEASURE`` (projective, irreversible) and ``CPAULI``
        (unitary only relative to a classical measurement record).
        :meth:`repro.circuit.instruction.Instruction.inverse` refuses to
        invert non-unitary instructions.
    """

    name: str
    num_qubits: int | None
    classical_reversible: bool
    clifford: bool
    diagonal: bool
    self_inverse: bool
    inverse_name: str
    unitary: bool = True


def _spec(
    name: str,
    num_qubits: int | None,
    *,
    classical_reversible: bool,
    clifford: bool,
    diagonal: bool,
    self_inverse: bool = True,
    inverse_name: str | None = None,
    unitary: bool = True,
) -> GateSpec:
    return GateSpec(
        name=name,
        num_qubits=num_qubits,
        classical_reversible=classical_reversible,
        clifford=clifford,
        diagonal=diagonal,
        self_inverse=self_inverse,
        inverse_name=inverse_name if inverse_name is not None else name,
        unitary=unitary,
    )


#: Registry of every gate understood by the library, keyed by canonical name.
ALL_GATES: dict[str, GateSpec] = {
    # --- single-qubit Paulis -------------------------------------------------
    "I": _spec("I", 1, classical_reversible=True, clifford=True, diagonal=True),
    "X": _spec("X", 1, classical_reversible=True, clifford=True, diagonal=False),
    "Y": _spec("Y", 1, classical_reversible=False, clifford=True, diagonal=False),
    "Z": _spec("Z", 1, classical_reversible=False, clifford=True, diagonal=True),
    # --- other single-qubit gates -------------------------------------------
    "H": _spec("H", 1, classical_reversible=False, clifford=True, diagonal=False),
    "S": _spec(
        "S",
        1,
        classical_reversible=False,
        clifford=True,
        diagonal=True,
        self_inverse=False,
        inverse_name="SDG",
    ),
    "SDG": _spec(
        "SDG",
        1,
        classical_reversible=False,
        clifford=True,
        diagonal=True,
        self_inverse=False,
        inverse_name="S",
    ),
    "T": _spec(
        "T",
        1,
        classical_reversible=False,
        clifford=False,
        diagonal=True,
        self_inverse=False,
        inverse_name="TDG",
    ),
    "TDG": _spec(
        "TDG",
        1,
        classical_reversible=False,
        clifford=False,
        diagonal=True,
        self_inverse=False,
        inverse_name="T",
    ),
    # --- two-qubit gates ------------------------------------------------------
    "CX": _spec("CX", 2, classical_reversible=True, clifford=True, diagonal=False),
    "CZ": _spec("CZ", 2, classical_reversible=False, clifford=True, diagonal=True),
    "SWAP": _spec("SWAP", 2, classical_reversible=True, clifford=True, diagonal=False),
    # --- three-qubit gates ----------------------------------------------------
    "CCX": _spec("CCX", 3, classical_reversible=True, clifford=False, diagonal=False),
    "CSWAP": _spec(
        "CSWAP", 3, classical_reversible=True, clifford=False, diagonal=False
    ),
    # --- variable-arity gates -------------------------------------------------
    # MCX(controls..., target); the number of controls is len(qubits) - 1.
    "MCX": _spec("MCX", None, classical_reversible=True, clifford=False, diagonal=False),
    # --- measurement and feedforward -----------------------------------------
    # MEASURE(q) projects one qubit in the Z or X basis (the basis and the
    # classical result slot travel in Instruction.params) and records the
    # outcome; CPAULI(q) applies a Pauli correction conditioned on the XOR of
    # recorded outcomes -- the Pauli-frame feedforward of the executed
    # teleportation links.  Neither is unitary in the ordinary sense, so both
    # refuse inversion; CPAULI is marked self-inverse because replaying it
    # under the same classical record undoes it.
    "MEASURE": _spec(
        "MEASURE",
        1,
        classical_reversible=False,
        clifford=True,
        diagonal=False,
        self_inverse=False,
        unitary=False,
    ),
    "CPAULI": _spec(
        "CPAULI",
        1,
        classical_reversible=False,
        clifford=True,
        diagonal=False,
        self_inverse=True,
        unitary=False,
    ),
    # --- pseudo instructions --------------------------------------------------
    # BARRIER synchronises the listed qubits (all qubits when empty); it is
    # used to model the *non*-pipelined address loading schedule of Sec 3.2.3.
    "BARRIER": _spec(
        "BARRIER", None, classical_reversible=True, clifford=True, diagonal=True
    ),
}

#: Gates that permute computational basis states (Feynman-path friendly).
REVERSIBLE_CLASSICAL_GATES: frozenset[str] = frozenset(
    name for name, spec in ALL_GATES.items() if spec.classical_reversible
)

#: Gates in the Clifford group.
CLIFFORD_GATES: frozenset[str] = frozenset(
    name for name, spec in ALL_GATES.items() if spec.clifford
)

#: Gates the Feynman-path simulator can execute.  In addition to the
#: permutation gates it supports the diagonal gates (``Z``, ``CZ``, ``S``,
#: ``T`` and their inverses) and ``Y`` because these only multiply a path's
#: amplitude by a phase / flip one bit, never branching the path.  ``MEASURE``
#: and ``CPAULI`` qualify too: once the measurement outcome is sampled, the
#: projection is a per-path bit/phase update (X basis) or an amplitude mask
#: (Z basis), and the frame correction is an outcome-conditioned Pauli.
#: ``H`` is the sole *branching* member of the set: each application doubles
#: the path count (up to the budget of
#: :data:`repro.circuit.ir.MAX_BRANCHES`), and later ``Z``-basis
#: measurements collapse branches again -- see the "Path branching" notes in
#: :mod:`repro.circuit.ir`.
PATH_SIMULABLE_GATES: frozenset[str] = REVERSIBLE_CLASSICAL_GATES | frozenset(
    {"Y", "Z", "CZ", "S", "SDG", "T", "TDG", "H", "MEASURE", "CPAULI"}
)

#: Members of :data:`PATH_SIMULABLE_GATES` that branch the path set.
BRANCHING_GATES: frozenset[str] = frozenset({"H"})

#: Instructions that are not unitary operations on the quantum state.
NON_UNITARY_GATES: frozenset[str] = frozenset(
    name for name, spec in ALL_GATES.items() if not spec.unitary
)


def gate_spec(name: str) -> GateSpec:
    """Return the :class:`GateSpec` for ``name`` (case-insensitive).

    Raises
    ------
    KeyError
        If the gate name is not registered.
    """
    key = name.upper()
    if key not in ALL_GATES:
        raise KeyError(f"unknown gate {name!r}")
    return ALL_GATES[key]


def is_clifford(name: str) -> bool:
    """True when ``name`` is a Clifford gate."""
    return gate_spec(name).clifford


def is_classical_reversible(name: str) -> bool:
    """True when ``name`` is a permutation of computational basis states."""
    return gate_spec(name).classical_reversible


def is_path_simulable(name: str) -> bool:
    """True when the Feynman-path simulator can execute ``name``."""
    return name.upper() in PATH_SIMULABLE_GATES


def inverse_gate_name(name: str) -> str:
    """Name of the inverse of ``name``.

    Raises
    ------
    ValueError
        For irreversible instructions (``MEASURE`` has no inverse).
    """
    spec = gate_spec(name)
    if not spec.unitary and not spec.self_inverse:
        raise ValueError(f"{spec.name} is irreversible and has no inverse")
    return spec.inverse_name


def validate_arity(name: str, num_qubits: int) -> None:
    """Raise ``ValueError`` if ``num_qubits`` operands are invalid for ``name``.

    Variable-arity gates (``MCX`` needs at least a control and a target,
    ``BARRIER`` accepts any number including zero) are validated by their own
    rules.
    """
    spec = gate_spec(name)
    if spec.name == "MCX":
        if num_qubits < 2:
            raise ValueError("MCX needs at least one control and one target")
        return
    if spec.name == "BARRIER":
        return
    if spec.num_qubits is not None and num_qubits != spec.num_qubits:
        raise ValueError(
            f"gate {spec.name} acts on {spec.num_qubits} qubits, got {num_qubits}"
        )
