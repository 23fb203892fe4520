"""Compiled gate-tape intermediate representation.

Interpreting a :class:`~repro.circuit.circuit.QuantumCircuit` instruction by
instruction costs a Python-level string dispatch, attribute lookups and a
fresh set of NumPy temporaries per gate, and the Monte-Carlo noise runner on
top of it adds a masked update per (gate, qubit) error site.  For the
paper's sweeps the same circuit is executed thousands of times, so this
module compiles a circuit **once** into a :class:`GateTape`:

* every gate becomes an integer opcode plus packed ``int32`` operand arrays;
* consecutive gates with the same opcode acting on **pairwise-disjoint**
  qubits are fused into one :class:`TapeGroup`, which the execution engines
  apply as a single batched NumPy column operation (QRAM circuits are full of
  such runs: router-tree levels are layers of parallel ``SWAP``/``CSWAP``);
* a :class:`NoiseSiteTable` enumerates every (gate, qubit) error site of a
  noise model so all Pauli codes for a shot batch can be drawn up front.

Fusing is only performed when it is *exactly* equivalent to sequential
application: gates inside a group touch disjoint qubit sets, so they commute
with each other and with any Pauli error on an earlier group member's
operands.  That is what lets the noisy engine apply a group's error sites
after the whole group without changing the sampled trajectory.  A noise
model that errs on a qubit a *later* gate of the group touches (an
off-operand, crosstalk-style site) gets a re-fused tape in which that qubit
closes the run (:meth:`GateTape.noise_sites`).

Mid-circuit measurement (``MEASURE``) and Pauli-frame feedforward
(``CPAULI``) compile to their own opcodes with **fusion-barrier** semantics:
each becomes a lone :class:`TapeGroup` carrying its classical payload, and no
run is fused across it.  The tape records the measurement order
(:attr:`GateTape.measurements`) because every measurement consumes exactly
one uniform variate of the shot's random stream -- drawn *before* the shot's
noise-site codes -- which is what keeps seeded trajectories of measured
circuits bit-identical across any sweep sharding.

Path branching (``H``)
----------------------
A mid-circuit Hadamard is the one gate the Feynman engine executes by
*doubling* the path set: ``H|b> = (|0> + (-1)**b |1>) / sqrt(2)`` splits
every path into two amplitude-weighted branches.  The compiler tags every
tape position with its **branch level** (:attr:`GateTape.branch_levels`, the
base-2 logarithm of the path multiplier after the group) and pre-computes a
deterministic **collapse plan** (:attr:`GateTape.collapse_strides`): for each
``Z``-basis measurement it decides statically -- from exact GF(2) tracking of
every branch axis's bit-difference vector -- whether the true-marginal
projection annihilates exactly one branch of some axis, in which case the
engine contracts that axis and the path set halves again.  Because the plan
is a pure function of the instruction sequence, every shot collapses
identically and the result is invariant under any sweep sharding.  Circuits
whose branch level would exceed the budget (:data:`MAX_BRANCHES`) raise the
typed :class:`BranchBudgetError` before any shot executes.

The tape is cached on the circuit (``circuit._tape``) and invalidated by
:meth:`QuantumCircuit.append`; as a second line of defence the cache is also
dropped when the instruction count changed (catching direct appends to
``circuit.instructions``).  Same-length in-place *replacement* of
instructions bypasses both checks -- circuits are treated as append-only,
which every builder in the library respects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuit.gates import is_path_simulable
from repro.circuit.instruction import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import QuantumCircuit
    from repro.sim.noise import NoiseModel, PauliChannel


# --------------------------------------------------------------------- opcodes
#: Integer opcodes, one per gate the registry knows.  ``OP_NOP`` stands for the
#: identity gate, which executes nothing but still carries noise sites.
#: ``OP_MEASURE``/``OP_CPAULI`` are the mid-circuit measurement and
#: Pauli-frame feedforward instructions; both act as **fusion barriers** (see
#: :func:`compile_circuit`).
(
    OP_NOP,
    OP_X,
    OP_Y,
    OP_Z,
    OP_S,
    OP_SDG,
    OP_T,
    OP_TDG,
    OP_H,
    OP_CX,
    OP_CZ,
    OP_SWAP,
    OP_CCX,
    OP_CSWAP,
    OP_MCX,
    OP_MEASURE,
    OP_CPAULI,
) = range(17)

#: Gate name -> opcode.  ``BARRIER`` is intentionally absent: barriers are
#: dropped at compile time (they only matter for depth scheduling).
GATE_OPCODES: dict[str, int] = {
    "I": OP_NOP,
    "X": OP_X,
    "Y": OP_Y,
    "Z": OP_Z,
    "S": OP_S,
    "SDG": OP_SDG,
    "T": OP_T,
    "TDG": OP_TDG,
    "H": OP_H,
    "CX": OP_CX,
    "CZ": OP_CZ,
    "SWAP": OP_SWAP,
    "CCX": OP_CCX,
    "CSWAP": OP_CSWAP,
    "MCX": OP_MCX,
    "MEASURE": OP_MEASURE,
    "CPAULI": OP_CPAULI,
}

#: Opcode -> gate name (debugging / error messages).
OPCODE_NAMES: dict[int, str] = {op: name for name, op in GATE_OPCODES.items()}


# ------------------------------------------------------------- branch budget
class BranchBudgetError(ValueError):
    """A circuit's path-branching level exceeds the configured budget.

    Every mid-circuit ``H`` doubles the Feynman path set until a later
    measurement collapses the branch, so unbounded branching would defeat
    the whole point of path-sum simulation.  The budget caps the number of
    *concurrently live* branch axes; see :data:`MAX_BRANCHES`.
    """


#: Cap on concurrently live branch axes (path multiplier ``2**MAX_BRANCHES``).
MAX_BRANCHES = 10


# ---------------------------------------------------------------- phase tables
#: ``i ** k`` for ``k`` in 0..3: the phase a run of ``S`` gates (or ``Y``
#: phase bookkeeping) accumulates, indexed by the exponent modulo 4.
PHASE_I_POW = np.array([1.0, 1j, -1.0, -1j], dtype=complex)
PHASE_I_POW_CONJ = np.conj(PHASE_I_POW)

#: ``exp(i pi/4) ** k`` for ``k`` in 0..7, built by cumulative multiplication
#: so a fused run of ``T`` gates matches sequential application to the ulp.
PHASE_T_POW = np.concatenate(
    ([1.0 + 0.0j], np.cumprod(np.full(7, np.exp(1j * np.pi / 4), dtype=complex)))
)
PHASE_T_POW_CONJ = np.conj(PHASE_T_POW)


# ---------------------------------------------------------------------- groups
@dataclass(frozen=True)
class TapeGroup:
    """A run of same-opcode gates on pairwise-disjoint qubits.

    ``qubits`` has shape ``(n_gates, arity)``; for ``MCX`` all gates in the
    group share the same arity (controls first, target last, as in
    :class:`~repro.circuit.instruction.Instruction`).

    ``MEASURE``/``CPAULI`` groups always hold exactly one instruction (they
    are fusion barriers) and carry its classical payload in ``params``:
    ``(cbit, basis)`` for a measurement, ``(pauli, cbit, ...)`` for a frame
    correction.  Ordinary gate groups leave ``params`` empty.

    ``operands`` holds the same qubits as Python int tuples, one per gate
    (the instructions' own operand tuples, so it costs one tuple per
    group): the bit-sliced executor indexes Python lists with them, where
    NumPy scalars would cost a conversion per gate.
    """

    opcode: int
    qubits: np.ndarray
    operands: tuple[tuple[int, ...], ...]
    params: tuple = ()

    @property
    def size(self) -> int:
        """Number of fused gates in the group."""
        return self.qubits.shape[0]

    @property
    def single(self) -> bool:
        """True when the group holds exactly one gate."""
        return self.qubits.shape[0] == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeGroup({OPCODE_NAMES[self.opcode]} x{self.size})"


# ----------------------------------------------------------------- noise sites
@dataclass(frozen=True)
class NoiseSiteTable:
    """Every (gate, qubit) error site of a noise model, in execution order.

    The site order is the order :func:`repro.sim.noise.iter_error_sites`
    yields (gates in instruction order, each gate's channels in model order,
    trivial channels skipped, then the model's end-of-circuit sites), so a
    shot's uniforms (:func:`repro.sim.seeding.draw_shot_randomness`, through
    :meth:`events_from_uniforms`) map to the sites a sequential insertion of
    the sampled Paulis would use -- the test suite's dense oracle does
    exactly that.  A draw returns only the sampled errors, as packed
    site-major events (see :meth:`events_from_uniforms`), never a dense
    ``(n_sites, shots)`` code block.  End-of-circuit sites carry
    ``gate_index == -1`` and ``group_index == num_groups``.  The per-site
    :attr:`thresholds` the draw compares against are built on first use
    and kept with the table, which :meth:`GateTape.noise_sites` memoises.
    """

    gate_index: np.ndarray  # (n_sites,) int32: index into GateTape.gates
    qubit: np.ndarray  # (n_sites,) int32
    group_index: np.ndarray  # (n_sites,) int32: group after which the site fires
    channels: tuple  # (n_sites,) PauliChannel per site
    #: The re-fused tape ``group_index`` refers to when an off-operand site
    #: sits inside a fused run (see :meth:`GateTape.noise_sites`); ``None``
    #: means the tape that built the table, which then runs unchanged.
    tape: "GateTape | None" = field(default=None, repr=False, compare=False)

    @property
    def n_sites(self) -> int:
        """Number of error sites in the table."""
        return len(self.channels)

    @cached_property
    def thresholds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every site's :attr:`PauliChannel.thresholds`: three ``(n_sites,)`` arrays.

        Built once per table (the table itself is memoised per noise model)
        from the runs of consecutive equal channels, so it costs one
        threshold evaluation per run rather than per site.
        """
        table = np.empty((3, self.n_sites))
        start = 0
        for channel, run in itertools.groupby(self.channels):
            stop = start + sum(1 for _ in run)
            table[:, start:stop] = np.array(channel.thresholds)[:, None]
            start = stop
        return tuple(table)

    def events_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """The error events of a ``(shots, n_sites)`` uniform block, packed.

        Site ``i`` of shot ``s`` draws code ``(u >= t0) + (u >= t1) + (u >=
        t2)`` over its channel's thresholds, which equals
        ``searchsorted(thresholds, u, side="right")`` because the thresholds
        are sorted.  Errors are rare, so one ``u >= t0`` pass finds the hits
        and only those get the other two comparisons.  Each hit is packed
        into one int64, ``((site * shots + s) << 2) | code``, and the array
        is sorted: site-major, then shot.  Every code is 1-3, so no event
        is zero and ``np.count_nonzero(events) == events.size``.
        """
        t0, t1, t2 = self.thresholds
        # The 1-D scan of the fresh hit mask is ~3x faster than a 2-D nonzero.
        shot, site = np.divmod(np.flatnonzero(uniforms >= t0), self.n_sites)
        hit = uniforms[shot, site]
        code = 1 + (hit >= t1[site]) + (hit >= t2[site])
        events = ((site * uniforms.shape[0] + shot) << 2) | code
        events.sort()
        return events


# ------------------------------------------------------------------------ tape
@dataclass
class GateTape:
    """Packed, execution-ready form of a circuit (see module docstring)."""

    num_qubits: int
    groups: list[TapeGroup]
    gates: list[Instruction]  # barrier-free gates in original order
    gate_group: np.ndarray  # (n_gates,) int32: group each gate belongs to
    unsupported_path_gates: tuple[str, ...]  # gates the Feynman engine rejects
    source_length: int  # len(circuit.instructions) at compile time
    #: ``(cbit, basis)`` of every MEASURE instruction in execution order --
    #: the order engines consume measurement randomness in (one uniform per
    #: entry, drawn before any noise-site randomness of the same shot).
    measurements: tuple[tuple[int, str], ...] = ()
    num_clbits: int = 0
    #: Branch level *after* each group: log2 of the path multiplier relative
    #: to the input path count.  Level rises by one per fused ``H`` and falls
    #: by one at every measurement group with a non-zero collapse stride.
    branch_levels: tuple[int, ...] = ()
    #: Per-group collapse plan: ``0`` everywhere except at ``Z``-basis
    #: measurement groups whose projection provably annihilates one branch of
    #: a live axis, where it holds that axis's pair stride (a power of two,
    #: in units of the *input* path count).  Engines contract the tagged axis
    #: right after applying the measurement.
    collapse_strides: tuple[int, ...] = ()
    #: Peak of :attr:`branch_levels` (0 for branch-free circuits).
    max_branch_level: int = 0
    _site_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_gates(self) -> int:
        """Number of barrier-free gates on the tape."""
        return len(self.gates)

    @property
    def num_groups(self) -> int:
        """Number of fused execution groups."""
        return len(self.groups)

    @property
    def num_measurements(self) -> int:
        """Number of mid-circuit measurements on the tape."""
        return len(self.measurements)

    def require_branch_budget(self, budget: int | None = None) -> None:
        """Raise :class:`BranchBudgetError` if the tape exceeds ``budget``.

        ``None`` checks against :data:`MAX_BRANCHES`, read at call time.
        Engines call this before executing a single shot, and the scenario
        compiler calls it when expanding fused teleportation links, so the
        typed error surfaces before any randomness is consumed.
        """
        limit = MAX_BRANCHES if budget is None else budget
        if self.max_branch_level > limit:
            raise BranchBudgetError(
                f"circuit reaches branch level {self.max_branch_level} "
                f"(path multiplier {2 ** self.max_branch_level}) but the "
                f"branch budget is {limit}; restructure the circuit so "
                "measurements collapse branches earlier"
            )

    def noise_sites(self, noise: "NoiseModel") -> NoiseSiteTable:
        """Memoized :class:`NoiseSiteTable` for ``noise``.

        A site on a qubit that is not its gate's operand fires, like every
        site, after the gate's whole fused group.  When a later gate of that
        group touches the qubit, the table is built against a **re-fused**
        copy of this tape instead (:attr:`NoiseSiteTable.tape`, memoised
        with the table), in which the site's qubit closes the run to later
        gates on it; engines execute that copy.  A model without such a
        conflict leaves :attr:`NoiseSiteTable.tape` ``None``, so this very
        tape runs.

        The table only depends on the (hashable, frozen) noise model, so
        repeated Monte-Carlo calls over a sweep reuse it.  The memo is keyed
        by value: the figure sweeps build a fresh but equal model in every
        shot shard, and each finds the table its point's first shard built.
        An unhashable custom model gets a fresh table on every call.
        """
        try:
            cached = self._site_cache.get(noise)
        except TypeError:  # unhashable custom model: recompute every call
            return self._build_noise_sites(noise)
        if cached is None:
            cached = self._site_cache[noise] = self._build_noise_sites(noise)
        return cached

    def _build_noise_sites(self, noise: "NoiseModel") -> NoiseSiteTable:
        gate_index: list[int] = []
        qubits: list[int] = []
        channels: list["PauliChannel"] = []
        offsite: dict[int, set[int]] = {}
        for index, instr in enumerate(self.gates):
            for qubit, channel in noise.gate_error_channels_indexed(index, instr):
                if channel.is_trivial:
                    continue
                if qubit not in instr.qubits:
                    offsite.setdefault(index, set()).add(qubit)
                gate_index.append(index)
                qubits.append(qubit)
                channels.append(channel)
        tape = self
        if offsite:
            # An off-operand site (e.g. a crosstalk model) fires at the end of
            # its gate's fused group, which is only sound if no later gate of
            # the group touches that qubit.  Re-fusing with the site qubits
            # blocked keeps such gates out of the run; when nothing was
            # blocked the grouping is unchanged and this tape runs as is.
            refused = _compile(self.num_qubits, self.gates, self.source_length, offsite)
            if not np.array_equal(refused.gate_group, self.gate_group):
                tape = refused
        gate_arr = np.asarray(gate_index, dtype=np.int32)
        group_arr = (
            tape.gate_group[gate_arr]
            if len(gate_index)
            else np.empty(0, dtype=np.int32)
        )
        # End-of-circuit sites (idle-noise flushes): fired after every group,
        # encoded with sentinel gate index -1 and group index num_groups so
        # the engines' group-bucketed event walk picks them up last.
        final = [
            (qubit, channel)
            for qubit, channel in noise.final_error_channels()
            if not channel.is_trivial
        ]
        if final:
            gate_arr = np.concatenate(
                [gate_arr, np.full(len(final), -1, dtype=np.int32)]
            )
            qubits.extend(qubit for qubit, _ in final)
            channels.extend(channel for _, channel in final)
            group_arr = np.concatenate(
                [group_arr, np.full(len(final), len(tape.groups), dtype=np.int32)]
            )
        return NoiseSiteTable(
            gate_index=gate_arr,
            qubit=np.asarray(qubits, dtype=np.int32),
            group_index=group_arr,
            channels=tuple(channels),
            tape=None if tape is self else tape,
        )


class _BranchTracker:
    """Exact static tracking of live branch axes during tape compilation.

    Every mid-circuit ``H`` opens one **branch axis**: path ``j`` splits
    into ``2 j + b`` (the newest axis is always the innermost stride-1
    pairing; every older axis's stride doubles).  For each axis the tracker
    maintains the GF(2) *bit-difference vector* between branch partners --
    the set of qubits whose bits differ inside every partner pair -- which
    evolves linearly and shot-independently under the path-simulable gate
    set: full-shot Pauli noise, frame corrections and uniform bit flips
    never change it, ``CX`` XORs the control's difference into the target,
    ``SWAP`` permutes entries.  A nonlinear gate (``CCX``/``CSWAP``/``MCX``)
    whose value-dependent update would touch a differing qubit marks that
    axis *opaque* (difference unknown, never collapsible).

    A ``Z``-basis measurement of a qubit that differs along a live
    non-opaque axis annihilates exactly one partner of every pair of that
    axis, for every shot -- so the compiler schedules a deterministic
    contraction of the innermost such axis (recorded as the group's collapse
    stride) and the path multiplier halves again.  Because the schedule is a
    pure function of the instruction sequence, every shot collapses
    identically and sharded sweeps stay bit-identical.
    """

    def __init__(self) -> None:
        #: Oldest-first difference vectors; ``None`` marks an opaque axis.
        self.axes: list[set[int] | None] = []

    @property
    def level(self) -> int:
        """Number of live branch axes (log2 of the path multiplier)."""
        return len(self.axes)

    def _opacify(self, qubits: Sequence[int]) -> None:
        touched = set(qubits)
        for index, diff in enumerate(self.axes):
            if diff is not None and diff & touched:
                self.axes[index] = None

    def apply(self, instr: Instruction) -> None:
        """Advance the tracker over one (non-measurement) instruction."""
        gate = instr.gate
        q = instr.qubits
        if gate == "H":
            for diff in self.axes:
                if diff is not None:
                    diff.discard(q[0])
            self.axes.append({q[0]})
        elif gate == "CX":
            for diff in self.axes:
                if diff is not None and q[0] in diff:
                    diff.symmetric_difference_update((q[1],))
        elif gate == "SWAP":
            for diff in self.axes:
                if diff is not None:
                    a, b = q[0] in diff, q[1] in diff
                    if a != b:
                        diff.symmetric_difference_update(q)
        elif gate == "CCX":
            self._opacify(q[:2])
        elif gate == "MCX":
            self._opacify(q[:-1])
        elif gate == "CSWAP":
            control, a, b = q
            for index, diff in enumerate(self.axes):
                if diff is None:
                    continue
                if control in diff or ((a in diff) != (b in diff)):
                    self.axes[index] = None
        # Every other path-simulable gate is diagonal or a uniform bit flip
        # (X/Y/Z/S/SDG/T/TDG/CZ/I, CPAULI): partner differences unchanged.

    def measure(self, qubit: int, basis: str) -> int:
        """Advance over a measurement; returns the collapse stride (0: none).

        An ``X``-basis measurement overwrites the measured column with the
        sampled outcome, so the qubit stops differing along every live axis
        but no axis is contracted.  A ``Z``-basis measurement contracts the
        innermost non-opaque axis whose partners differ at ``qubit``; every
        other live axis still differing there absorbs the contracted axis's
        difference vector (the surviving partner depends on its branch bit).
        """
        if basis == "X":
            for diff in self.axes:
                if diff is not None:
                    diff.discard(qubit)
            return 0
        chosen = -1
        for index in range(len(self.axes) - 1, -1, -1):
            diff = self.axes[index]
            if diff is not None and qubit in diff:
                chosen = index
                break
        if chosen < 0:
            return 0
        stride = 2 ** (len(self.axes) - 1 - chosen)
        contracted = self.axes.pop(chosen)
        for diff in self.axes:
            if diff is not None and qubit in diff:
                diff.symmetric_difference_update(contracted)
        return stride


def _flush(
    groups: list[TapeGroup], opcode: int | None, rows: list[Sequence[int]]
) -> None:
    if opcode is None or not rows:
        return
    groups.append(
        TapeGroup(
            opcode=opcode,
            qubits=np.asarray(rows, dtype=np.int32),
            operands=tuple(rows),
        )
    )


def compile_circuit(circuit: "QuantumCircuit") -> GateTape:
    """Compile ``circuit`` into a :class:`GateTape`, caching it on the circuit.

    The cache is invalidated by :meth:`QuantumCircuit.append` and, as a
    safety net, whenever the instruction count no longer matches the one the
    tape was compiled from.  Replacing an instruction in place without
    changing the count is not detected (see module docstring).

    ``MEASURE`` and ``CPAULI`` instructions are **fusion barriers**: each
    becomes its own single-instruction group (carrying its classical payload
    in :attr:`TapeGroup.params`), and the run being accumulated is flushed on
    both sides.  Fusing across a measurement would be unsound twice over --
    a deferred gate could change the measured qubit's marginal, and a noise
    site deferred past the projection would act on the collapsed state.
    """
    cached = getattr(circuit, "_tape", None)
    if cached is not None and cached.source_length == len(circuit.instructions):
        return cached
    tape = _compile(circuit.num_qubits, circuit.instructions, len(circuit.instructions))
    circuit._tape = tape
    return tape


def _compile(
    num_qubits: int,
    instructions: Sequence[Instruction],
    source_length: int,
    offsite: dict[int, set[int]] | None = None,
) -> GateTape:
    """The fusion loop of :func:`compile_circuit`, uncached.

    ``offsite`` maps a barrier-free gate index to the qubits a noise model
    errs on right after that gate without them being its operands.  They
    join the open run's occupied set after the gate, so no later gate on
    those qubits fuses into the run and the group-deferred error still
    fires before any gate touches them (see :meth:`GateTape.noise_sites`).
    """
    groups: list[TapeGroup] = []
    gates: list[Instruction] = []
    gate_group: list[int] = []
    unsupported: list[str] = []
    measurements: list[tuple[int, str]] = []
    num_clbits = 0
    tracker = _BranchTracker()
    gate_levels: list[int] = []
    collapse_by_group: dict[int, int] = {}

    current_opcode: int | None = None
    current_arity = -1
    current_rows: list[Sequence[int]] = []
    current_qubits: set[int] = set()

    for instr in instructions:
        if instr.is_barrier:
            continue
        opcode = GATE_OPCODES[instr.gate]
        if not is_path_simulable(instr.gate) and instr.gate not in unsupported:
            unsupported.append(instr.gate)
        if opcode in (OP_MEASURE, OP_CPAULI):
            # Fusion barrier: close the open run, emit a lone group with the
            # classical payload, and start the next run from scratch.
            _flush(groups, current_opcode, current_rows)
            current_opcode = None
            current_arity = -1
            current_rows = []
            current_qubits = set()
            gates.append(instr)
            gate_group.append(len(groups))
            groups.append(
                TapeGroup(
                    opcode=opcode,
                    qubits=np.asarray([instr.qubits], dtype=np.int32),
                    operands=(instr.qubits,),
                    params=instr.params,
                )
            )
            if opcode == OP_MEASURE:
                stride = tracker.measure(instr.qubits[0], instr.basis)
                if stride:
                    collapse_by_group[len(groups) - 1] = stride
                measurements.append((instr.cbit, instr.basis))
                num_clbits = max(num_clbits, instr.cbit + 1)
            else:
                # A CPAULI may reference slots no measurement wrote (they
                # read as 0); the classical register must still cover them.
                num_clbits = max(
                    num_clbits, max(instr.condition_bits, default=-1) + 1
                )
            gate_levels.append(tracker.level)
            continue
        operands = instr.qubits
        fits = (
            opcode == current_opcode
            and len(operands) == current_arity
            and not current_qubits.intersection(operands)
        )
        if not fits:
            _flush(groups, current_opcode, current_rows)
            current_opcode = opcode
            current_arity = len(operands)
            current_rows = []
            current_qubits = set()
        current_rows.append(operands)
        current_qubits.update(operands)
        if offsite:
            current_qubits.update(offsite.get(len(gates), ()))
        gates.append(instr)
        gate_group.append(len(groups))
        tracker.apply(instr)
        gate_levels.append(tracker.level)
    _flush(groups, current_opcode, current_rows)

    group_levels = [0] * len(groups)
    for gate_index, level in enumerate(gate_levels):
        # Gates of a group are consecutive, so the last write per group is
        # the level after the group's final gate.
        group_levels[gate_group[gate_index]] = level

    return GateTape(
        num_qubits=num_qubits,
        groups=groups,
        gates=gates,
        gate_group=np.asarray(gate_group, dtype=np.int32),
        unsupported_path_gates=tuple(unsupported),
        source_length=source_length,
        measurements=tuple(measurements),
        num_clbits=num_clbits,
        branch_levels=tuple(group_levels),
        collapse_strides=tuple(
            collapse_by_group.get(index, 0) for index in range(len(groups))
        ),
        max_branch_level=max(gate_levels, default=0),
    )
