"""Vectorised Feynman-path simulator (Sec. 6.2 of the paper).

Every gate the QRAM architectures use is either a permutation of computational
basis states (``X``, ``CX``, ``CCX``, ``MCX``, ``SWAP``, ``CSWAP``) or diagonal
up to a bit flip (the Pauli errors ``X``/``Y``/``Z`` and the phase gates
``Z``/``S``/``T``/``CZ``).  Under them a basis state never branches: it is a
*path* ``(bitstring, amplitude)`` that each gate updates in place (the
bounded ``H`` branching below is the one exception).

The simulator holds all paths of the input superposition at once and applies
each gate to every path together, so the cost of a query is
``O(n_gates * n_paths)`` and the memory footprint is constant in circuit
depth -- the property that lets the paper simulate noisy QRAMs far beyond the
reach of dense statevector simulation.  For Monte-Carlo noise it vectorises
over shots as well: the path set is replicated ``shots`` times and per-shot
Pauli errors are applied as masked updates.

One stateless class, :class:`FeynmanPathSimulator` (named
:data:`ENGINE_NAME`, ``"feynman-tape"``), answers both questions the
reproduction asks of a circuit -- "what state does it produce?" and "what
are the per-shot trajectories under Monte-Carlo Pauli noise?" -- and
reduces the latter to query fidelities.  It executes the fused
:class:`~repro.circuit.ir.GateTape` group by group with integer-opcode
dispatch, draws **all** error events for a shot batch up front from the
tape's noise-site table (sparse, one packed int64 per non-identity Pauli
code), and applies them per shot.
Shots run stacked and **bit-sliced** (a noiseless :meth:`~FeynmanPathSimulator.run`
is one shot of the same executor): one Python ``int`` per qubit holds that
qubit's bit in every (shot, path) column, so a ``SWAP`` is a list swap and
``CSWAP``/``CX``/``CCX``/``MCX``/``X`` and ``X`` errors are a few integer
XOR/AND operations over all columns at once.  Only what touches amplitudes
(phases, ``Z``/``Y`` errors and frames, measurements, branching) unpacks the
bits it reads, and it applies the same NumPy update as the group kernels, so
the amplitudes are bit-identical to a NumPy-bool execution.  Fused
``T``/``TDG`` runs use a phase table whose rounding can differ from
sequential multiplication by ~1 ulp.

Its seeded shots are checked against an independent dense oracle in the test
suite (``tests/oracle.py``): the same shot's Paulis, drawn from the noise
model and inserted after their gates, run through
:class:`~repro.sim.statevector.StatevectorSimulator`, which is also the
noiseless cross-check of every path-sum result.

:func:`get_engine` returns the one shared instance.
:data:`ENGINE_NAME` is what fingerprints, records and job views stamp as
their ``engine`` field.

Mid-circuit measurement and Pauli frames
----------------------------------------
The engine executes ``MEASURE`` and ``CPAULI`` instructions (the
executed-teleportation primitives):

* A **Z-basis** measurement samples the outcome from the shot's true marginal
  (``p0`` computed from the shot's path amplitudes), zeroes the amplitudes of
  non-matching paths and renormalises by ``1 / sqrt(p_m)`` -- the path count
  never changes, collapsed paths simply carry zero amplitude.
* An **X-basis** measurement consumes one uniform exactly like a Z
  measurement but against ``p0 = 1/2``: projecting any computational basis
  path onto ``|+>`` or ``|->`` has magnitude ``1/sqrt(2)``, so when the
  measured qubit's value is determined by the other qubits along each path
  (true for every teleportation ladder, where it carries a copy of another
  qubit) the outcome really is uniform and the per-path update
  ``amp *= (-1)**(bit * m); bit := m`` is the exact renormalised projection.
  When paths *collide* (two paths differing only in the measured bit), the
  uniform draw still yields an **unbiased** fidelity estimator -- the
  cancelled interference shows up as zero-amplitude shots -- but individual
  shot fidelities are then estimates rather than exact projections.
  By convention the measured qubit is left in the computational state
  ``|m>`` (hardware re-initialises from the classical record), so a
  ``CPAULI X`` conditioned on ``m`` resets it to ``|0>`` for reuse.
* ``CPAULI`` applies its Pauli to the shots whose recorded classical bits
  XOR to 1 -- Pauli-frame feedforward, executed per shot.

**Random-stream contract.**  The noisy entry points turn their ``rng``
argument into a :class:`~repro.sim.seeding.ShotSeeds` window
(:func:`~repro.sim.seeding.as_shot_seeds`) and draw every shot from its own
stream.  Per shot, measurement uniforms are drawn
*first* (one per ``MEASURE`` in program order -- see
:attr:`~repro.circuit.ir.GateTape.measurements`), then the noise-site codes
in site order.  Because a shot's draws depend only on its own stream, seeded
trajectories stay bit-identical across any ``(workers, shard_size)`` sweep
split; circuits without measurements consume exactly the pre-measurement
streams, preserving every committed artefact bit for bit.

Bounded path branching (``H``)
------------------------------
Mid-circuit Hadamards execute by **doubling the path set**: every path
splits into an amplitude-weighted pair (``1/sqrt(2)`` each, sign flipped on
the upper branch when the pre-branch bit was 1), with the newest branch
always the innermost stride-1 pairing.  The per-shot path count is therefore
dynamic: ``n_paths`` rises by a factor of two per ``H`` (bounded by the
typed budget of :data:`repro.circuit.ir.MAX_BRANCHES`, enforced before
any shot executes) and falls again at ``Z``-basis measurements whose
compile-time collapse plan (:attr:`~repro.circuit.ir.GateTape.collapse_strides`)
proves the true-marginal projection annihilates exactly one branch of a live
axis -- the engine then contracts that axis by gathering the surviving
partner of every pair.  Branching consumes **no randomness** of its own, so
the random-stream contract above is untouched: branch-free circuits execute
exactly as before, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.ir import (
    GateTape,
    NoiseSiteTable,
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
    PHASE_I_POW,
    PHASE_I_POW_CONJ,
    PHASE_T_POW,
    PHASE_T_POW_CONJ,
    compile_circuit,
)
from repro.sim.fidelity import QueryResult, shot_fidelities
from repro.sim.noise import (
    NoiseModel,
    NoiselessModel,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from repro.sim.paths import (
    PackedBits,
    PathState,
    _pack_row,
    _pack_rows,
    _unpack_row,
    _unpack_rows,
)
from repro.sim.seeding import ShotSeeds, as_shot_seeds, draw_shot_randomness

#: The engine's name, stamped into fingerprints, records and job views.
ENGINE_NAME = "feynman-tape"

#: The amplitude weight of each Hadamard branch.
INV_SQRT2 = 1.0 / np.sqrt(2.0)


class UnsupportedGateError(ValueError):
    """Raised when a circuit contains a gate outside the path-simulable set."""


def _check_state(circuit: QuantumCircuit, state: PathState) -> None:
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )


# ========================================================= measurement helpers
def _apply_measure(
    column: np.ndarray,
    amps: np.ndarray,
    basis: str,
    uniforms: np.ndarray,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Measure one qubit across a stacked shot block, in place.

    ``column`` is the measured qubit's boolean values as a writable 1-D
    array of length ``shots * n_paths`` (one unpacked qubit row of the
    stacked block); ``uniforms`` holds one
    pre-drawn variate per shot.  Returns ``(outcomes, keep)``: the sampled
    outcomes (shape ``(shots,)`` int8) and, for ``Z``-basis measurements,
    the ``(shots, n_paths)`` mask of paths that survived the projection
    (``None`` in the X basis) -- the input to a scheduled branch collapse.
    See the module docstring for the projection rules.
    """
    shots = uniforms.shape[0]
    bitmat = column.reshape(shots, n_paths)
    if basis == "X":
        outcomes = (uniforms >= 0.5).astype(np.int8)
        chosen = np.repeat(outcomes.astype(bool), n_paths)
        # Projection onto |m>_x: phase (-1)**(bit * m), renormalised by
        # sqrt(2) -- the product leaves |amp| unchanged.
        flip = column & chosen
        if np.any(flip):
            amps[flip] *= -1.0
        column[:] = chosen
        return outcomes, None
    weights = (np.abs(amps) ** 2).reshape(shots, n_paths)
    total = weights.sum(axis=1)
    w1 = np.where(bitmat, weights, 0.0).sum(axis=1)
    safe_total = np.where(total > 0.0, total, 1.0)
    p0 = (total - w1) / safe_total
    outcomes = (uniforms >= p0).astype(np.int8)
    p_m = np.where(outcomes == 1, w1, total - w1) / safe_total
    # p_m is guaranteed positive for the sampled outcome (u < p0 selects 0
    # only when p0 > 0, and u >= p0 selects 1 only when p1 > 0); the guard
    # covers zero-norm shots produced by cancelled X measurements upstream.
    scale = 1.0 / np.sqrt(np.where(p_m > 0.0, p_m, 1.0))
    keep = bitmat == (outcomes[:, None] != 0)
    amps *= (keep * scale[:, None]).reshape(-1)
    column[:] = np.repeat(outcomes.astype(bool), n_paths)
    return outcomes, keep


def _branch_hadamard_group(
    bits_q: np.ndarray, amps: np.ndarray, qs: np.ndarray, n_paths: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a fused ``H`` group to a qubit-major block, doubling per gate.

    ``H|b> = (|0> + (-1)**b |1>) / sqrt(2)``: column ``j`` splits into
    ``2 j`` (bit cleared) and ``2 j + 1`` (bit set, sign flipped when the
    pre-branch bit was 1), each weighted by ``1/sqrt(2)``, so the newest
    branch axis is always the innermost stride-1 pairing -- the layout the
    compile-time collapse plan of :mod:`repro.circuit.ir` assumes.  Returns
    the new ``(bits_q, amps, n_paths)``.
    """
    for row in range(qs.shape[0]):
        q = int(qs[row, 0])
        old = bits_q[q].copy()
        bits_q = np.repeat(bits_q, 2, axis=1)
        amps = np.repeat(amps, 2)
        amps *= INV_SQRT2
        upper = amps[1::2]
        upper[old] *= -1.0
        bits_q[q, 0::2] = False
        bits_q[q, 1::2] = True
        n_paths *= 2
    return bits_q, amps, n_paths


def _collapse_flat_indices(
    keep: np.ndarray, shots: int, n_paths: int, stride: int
) -> np.ndarray:
    """Flat survivor indices contracting one scheduled branch axis.

    ``keep`` is the ``(shots, n_paths)`` survival mask of a ``Z``-basis
    measurement whose compile-time plan proved that along the stride-
    ``stride`` pairing exactly one partner of every pair survives.  The
    returned index array (length ``shots * n_paths // 2``) gathers each
    pair's survivor in natural order, halving the per-shot path count.
    """
    outer = n_paths // (2 * stride)
    upper = keep.reshape(shots, outer, 2, stride)[:, :, 1, :]
    lower = (
        np.arange(outer, dtype=np.int64)[:, None] * (2 * stride)
        + np.arange(stride, dtype=np.int64)[None, :]
    )
    survivors = lower[None] + upper.astype(np.int64) * stride
    offsets = np.arange(shots, dtype=np.int64)[:, None, None] * n_paths
    return (offsets + survivors).reshape(-1)


# ================================================================== simulator
class FeynmanPathSimulator:
    """Simulates basis-permutation circuits path by path (see module docstring)."""

    def _tape(self, circuit: QuantumCircuit) -> GateTape:
        tape = compile_circuit(circuit)
        if tape.unsupported_path_gates:
            raise UnsupportedGateError(
                f"gate {tape.unsupported_path_gates[0]} is not simulable by "
                "the Feynman-path simulator"
            )
        tape.require_branch_budget()
        return tape

    def run(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Noiseless evolution of ``state`` through ``circuit``.

        One shot of the stacked executor.  ``rng`` supplies measurement
        outcomes for circuits containing ``MEASURE`` instructions; ``None``
        uses a fixed stream (``default_rng(0)``) so noiseless runs stay
        deterministic.  Circuits without measurements never consume
        randomness.
        """
        _check_state(circuit, state)
        tape = self._tape(circuit)
        uniforms = None
        if tape.num_measurements:
            rng = np.random.default_rng(0) if rng is None else rng
            uniforms = rng.random((tape.num_measurements, 1))
        bits, amps, _ = _execute_stacked_shots(tape, state, 1, None, None, uniforms)
        return PathState(bits=np.asarray(bits), amplitudes=amps)

    def run_noisy_shots_recorded(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | int | np.random.Generator | None = None,
    ) -> tuple[PackedBits, np.ndarray, np.ndarray | None]:
        """Monte-Carlo trajectories: ``shots`` stacked path blocks.

        Returns ``(bits, amps, outcomes)``.  ``bits`` is the executor's
        :class:`~repro.sim.paths.PackedBits` -- one ``int`` per qubit, with
        ``shape == (shots * n_paths, n_qubits)`` -- which
        :func:`~repro.sim.fidelity.shot_fidelities` reads without unpacking
        every qubit; ``np.asarray(bits)`` gives the bool block, whose rows
        ``[s * n_paths, (s+1) * n_paths)`` belong to shot ``s``.
        ``outcomes`` is the batch's classical register -- shape
        ``(num_clbits, shots)`` ``int8``, one row per slot -- or ``None``
        when the circuit records nothing; postselection
        (:meth:`query_fidelities`) partitions shots by it.  Recording only
        observes the register the executor already maintains, so it
        consumes no randomness.

        ``rng`` is a :class:`~repro.sim.seeding.ShotSeeds` window or anything
        :func:`~repro.sim.seeding.as_shot_seeds` turns into one (an integer
        seed, a ``Generator``, or ``None`` for fresh entropy).  Every shot
        draws its errors from its own ``SeedSequence``-derived stream, so the
        result is invariant under any sharding of the shot range.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        seeds = as_shot_seeds(rng)
        _check_state(circuit, state)
        tape = self._tape(circuit)
        # One up-front draw for every (gate, qubit) error site of the batch,
        # plus one uniform per (measurement, shot): each shot consumes its
        # own stream, measurement uniforms first, which is what makes
        # sharded sweeps bit-identical to serial ones.
        sites: NoiseSiteTable | None = (
            None if isinstance(noise, NoiselessModel) else tape.noise_sites(noise)
        )
        if sites is not None and sites.tape is not None:
            tape = sites.tape  # re-fused around an off-operand site
        n_measurements = tape.num_measurements
        events = measure_uniforms = None
        if sites is not None or n_measurements:
            events, measure_uniforms = draw_shot_randomness(
                sites, seeds, shots, n_measurements
            )
        return _execute_stacked_shots(
            tape, state, shots, sites, events, measure_uniforms
        )

    def query_fidelities(
        self,
        circuit: QuantumCircuit,
        input_state: PathState,
        noise: NoiseModel,
        shots: int,
        *,
        keep_qubits: list[int] | None = None,
        ideal_output: PathState | None = None,
        rng: ShotSeeds | int | np.random.Generator | None = None,
        postselect: tuple[tuple[int, int], ...] | None = None,
    ) -> QueryResult:
        """Monte-Carlo estimate of the query fidelity under ``noise``.

        The shots run through :meth:`run_noisy_shots_recorded`, and its
        packed bits go to :func:`~repro.sim.fidelity.shot_fidelities` as
        they are: no full bool block is built.

        Parameters
        ----------
        circuit:
            The (noise-free) query circuit.
        input_state:
            Input superposition, typically
            ``PathState.register_superposition`` over the address register.
        noise:
            Noise model; gate-based models are applied on the fly.
        shots:
            Number of Monte-Carlo noise samples.
        keep_qubits:
            Qubits defining the *reduced* fidelity (normally address + bus,
            i.e. the registers whose state the algorithm actually consumes).
            ``None`` computes the full-state overlap fidelity.
        ideal_output:
            Pre-computed noiseless output (saves a simulation when sweeping
            noise parameters over the same circuit).
        rng:
            Anything :func:`~repro.sim.seeding.as_shot_seeds` accepts.
        postselect:
            ``(cbit, expected_outcome)`` pairs to postselect on: a shot is
            *kept* only when every listed classical slot recorded its
            expected outcome.  Rejected shots come back as ``NaN`` in
            :attr:`QueryResult.fidelities` and are excluded from every
            aggregate, with :attr:`QueryResult.kept_fraction` accounting for
            them.  ``None`` (or empty) keeps every shot.
        """
        if ideal_output is None:
            ideal_output = self.run(circuit, input_state)
        bits, amps, outcomes = self.run_noisy_shots_recorded(
            circuit, input_state, noise, shots, rng=rng
        )
        kept: np.ndarray | None = None
        if postselect:
            if outcomes is None:
                raise ValueError(
                    "postselect names classical bits but the circuit records "
                    "no measurement outcomes"
                )
            kept = np.ones(shots, dtype=bool)
            for cbit, expected in postselect:
                kept &= outcomes[cbit] == expected
        # Branching circuits may leave more paths per shot than the input had
        # (uncollapsed H branches), so derive the per-shot width from the
        # returned block instead of the input state.
        fidelities = shot_fidelities(
            ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=bits.shape[0] // shots,
            keep_qubits=keep_qubits,
            kept=kept,
        )
        return QueryResult(fidelities=fidelities, shots=shots)


def _execute_stacked_shots(
    tape: GateTape,
    state: PathState,
    shots: int,
    sites: NoiseSiteTable | None,
    events: np.ndarray | None,
    measure_uniforms: np.ndarray | None,
) -> tuple[PackedBits, np.ndarray, np.ndarray | None]:
    """Execute the fused tape over a full shot-stacked block of bit-sliced rows.

    The block holds one Python ``int`` per qubit: bit ``j`` of ``rows[q]`` is
    qubit ``q`` in column ``j = s * n_paths + p``, path ``p`` of shot ``s``
    (the transpose of the returned ``bits`` layout).  Permutation
    gates (``SWAP``, ``CSWAP``, ``CX``, ``CCX``, ``MCX``, ``X``) and ``X``
    errors are then one integer operation over every column at once, where a
    NumPy row update pays its call overhead per gate; gates in a group act on
    disjoint qubits, so applying them one by one equals the batched form.
    Whatever reads bits to touch amplitudes (phase groups, ``Z``/``Y``
    errors and frames, ``MEASURE``, ``H`` branching and collapse) unpacks
    only the rows or the shot segment it reads and applies the same NumPy
    update to the same values in the same order as the group kernels, so the
    amplitudes are bit-identical to a NumPy-bool execution.

    This is the Feynman engine's only executor: a noiseless run is one
    shot without sites.  ``events`` holds the pre-drawn error events of
    :func:`~repro.sim.seeding.draw_shot_randomness`: one sorted int64
    ``((site * shots + shot) << 2) | code`` per non-identity Pauli code,
    site-major.  ``measure_uniforms`` holds the pre-drawn measurement
    uniforms.  Returns ``(bits, amps, outcomes)``: ``bits`` is the final
    rows and width as a :class:`~repro.sim.paths.PackedBits` of shape
    ``(shots * n_paths, n_qubits)``, left packed so that
    :func:`~repro.sim.fidelity.shot_fidelities` unpacks only the qubits it
    reads (``np.asarray`` gives the whole bool block); the recorded
    classical register (``None`` when the tape has no classical bits) rides
    along for :meth:`FeynmanPathSimulator.run_noisy_shots_recorded`.
    """
    n_paths = state.num_paths
    width = shots * n_paths
    full = (1 << width) - 1
    segment = (1 << n_paths) - 1
    # Tiling a path pattern over the shots is one multiplication by the
    # repunit sum(2 ** (s * n_paths)): the copies never overlap, so no carry.
    repunit = full // segment if segment else 0
    rows = [row * repunit for row in _pack_rows(state.bits.T)]
    amps = np.tile(state.amplitudes, shots).astype(complex)

    if sites is not None:
        # The packed events are site-major: split into (site, shot, code).
        site_rows, event_shot = np.divmod(events >> 2, shots)
        event_code = (events & 3).tolist()
        event_qubit = sites.qubit[site_rows].tolist()
        event_shot = event_shot.tolist()
        # Group indices are non-decreasing in site order, so the event
        # list is already sorted by group; bucket boundaries via
        # searchsorted.  The extra trailing bucket (group index ==
        # num_groups) holds the model's end-of-circuit sites, applied
        # after every group has executed.
        bucket_starts = np.searchsorted(
            sites.group_index[site_rows], np.arange(len(tape.groups) + 2)
        ).tolist()
    else:
        event_code = event_qubit = event_shot = []
        bucket_starts = [0] * (len(tape.groups) + 2)

    outcomes: np.ndarray | None = None
    if tape.num_clbits:
        outcomes = np.zeros((tape.num_clbits, shots), dtype=np.int8)
    # Packed row of each recorded bit at the current n_paths (every path of
    # a shot carries the shot's outcome); a CPAULI's active columns are the
    # XOR of its condition bits' rows.  Reset whenever n_paths changes.
    spreads: dict[int, int] = {}
    measure_cursor = 0

    for index, group in enumerate(tape.groups):
        opcode = group.opcode
        if opcode == OP_CSWAP:
            for control, a, b in group.operands:
                diff = (rows[a] ^ rows[b]) & rows[control]
                rows[a] ^= diff
                rows[b] ^= diff
        elif opcode == OP_SWAP:
            for a, b in group.operands:
                rows[a], rows[b] = rows[b], rows[a]
        elif opcode == OP_CX:
            for control, target in group.operands:
                rows[target] ^= rows[control]
        elif opcode == OP_CCX:
            for c1, c2, target in group.operands:
                rows[target] ^= rows[c1] & rows[c2]
        elif opcode == OP_X:
            for (qubit,) in group.operands:
                rows[qubit] ^= full
        elif opcode == OP_MCX:
            for *controls, target in group.operands:
                active = full
                for control in controls:
                    active &= rows[control]
                rows[target] ^= active
        elif opcode == OP_MEASURE:
            cbit, basis = group.params
            qubit = group.operands[0][0]
            column = _unpack_row(rows[qubit], width)
            outcomes[cbit], keep = _apply_measure(
                column, amps, basis, measure_uniforms[measure_cursor], n_paths
            )
            rows[qubit] = spreads[cbit] = _pack_row(column)
            measure_cursor += 1
            stride = tape.collapse_strides[index]
            if stride:
                flat = _collapse_flat_indices(keep, shots, n_paths, stride)
                rows = _pack_rows(_unpack_rows(rows, width)[:, flat])
                amps = amps[flat]
                n_paths //= 2
                width = shots * n_paths
                full = (1 << width) - 1
                segment = (1 << n_paths) - 1
                spreads = {}
        elif opcode == OP_CPAULI:
            spread = 0
            for cbit in group.params[1:]:
                if cbit not in spreads:
                    spreads[cbit] = _pack_row(np.repeat(outcomes[cbit] != 0, n_paths))
                spread ^= spreads[cbit]
            if spread:
                _apply_sliced_frame(
                    rows, amps, group.operands[0][0], group.params[0], spread, width
                )
        elif opcode == OP_H:
            block, amps, n_paths = _branch_hadamard_group(
                _unpack_rows(rows, width), amps, group.qubits, n_paths
            )
            rows = _pack_rows(block)
            width = shots * n_paths
            full = (1 << width) - 1
            segment = (1 << n_paths) - 1
            spreads = {}
        elif opcode != OP_NOP:
            # Phase groups: every operand is distinct, so the unpacked rows
            # in operand order, indexed by position, replay the group kernel.
            block = _unpack_rows(
                [rows[q] for gate in group.operands for q in gate], width
            )
            local = np.arange(group.qubits.size).reshape(group.qubits.shape)
            _apply_group(block, amps, opcode, local)
            if opcode == OP_Y:
                for (qubit,) in group.operands:
                    rows[qubit] ^= full
        for event in range(bucket_starts[index], bucket_starts[index + 1]):
            _apply_sliced_error_event(
                rows,
                amps,
                event_qubit[event],
                event_shot[event],
                event_code[event],
                n_paths,
                segment,
            )
    final_bucket = len(tape.groups)
    for event in range(bucket_starts[final_bucket], bucket_starts[final_bucket + 1]):
        _apply_sliced_error_event(
            rows,
            amps,
            event_qubit[event],
            event_shot[event],
            event_code[event],
            n_paths,
            segment,
        )
    return PackedBits(rows, width), amps, outcomes


# ============================================================= group execution
def _apply_group(
    bits_q: np.ndarray, amps: np.ndarray, opcode: int, qs: np.ndarray
) -> None:
    """Apply one fused group in place.

    ``bits_q`` is the **qubit-major** path block: shape
    ``(n_qubits, n_rows)``, so ``bits_q[q]`` is one contiguous row per qubit
    and every update below streams over contiguous memory.  Gates inside a
    group act on pairwise-disjoint qubits, which is what makes the fancy-
    indexed batched forms exactly equivalent to sequential application.
    """
    single = qs.shape[0] == 1
    if opcode == OP_SWAP:
        if single:
            a, b = int(qs[0, 0]), int(qs[0, 1])
            row = bits_q[a].copy()
            bits_q[a] = bits_q[b]
            bits_q[b] = row
        else:
            a, b = qs[:, 0], qs[:, 1]
            rows = bits_q[a]  # fancy indexing copies
            bits_q[a] = bits_q[b]
            bits_q[b] = rows
    elif opcode == OP_CSWAP:
        control, a, b = qs[:, 0], qs[:, 1], qs[:, 2]
        if single:
            control, a, b = int(control[0]), int(a[0]), int(b[0])
        diff = (bits_q[a] ^ bits_q[b]) & bits_q[control]
        bits_q[a] ^= diff
        bits_q[b] ^= diff
    elif opcode == OP_CX:
        if single:
            bits_q[int(qs[0, 1])] ^= bits_q[int(qs[0, 0])]
        else:
            bits_q[qs[:, 1]] ^= bits_q[qs[:, 0]]
    elif opcode == OP_CCX:
        if single:
            c1, c2, target = (int(q) for q in qs[0])
            bits_q[target] ^= bits_q[c1] & bits_q[c2]
        else:
            bits_q[qs[:, 2]] ^= bits_q[qs[:, 0]] & bits_q[qs[:, 1]]
    elif opcode == OP_X:
        bits_q[qs[:, 0]] ^= True
    elif opcode == OP_NOP:
        return
    elif opcode == OP_MCX:
        if single:
            controls, target = qs[0, :-1], int(qs[0, -1])
            bits_q[target] ^= np.logical_and.reduce(bits_q[controls], axis=0)
        else:
            active = np.logical_and.reduce(bits_q[qs[:, :-1]], axis=1)
            bits_q[qs[:, -1]] ^= active
    elif opcode == OP_Z:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= -1.0
        else:
            parity = bits_q[qs[:, 0]].sum(axis=0) & 1
            amps[parity == 1] *= -1.0
    elif opcode == OP_CZ:
        if single:
            control, target = int(qs[0, 0]), int(qs[0, 1])
            amps[bits_q[control] & bits_q[target]] *= -1.0
        else:
            parity = (bits_q[qs[:, 0]] & bits_q[qs[:, 1]]).sum(axis=0) & 1
            amps[parity == 1] *= -1.0
    elif opcode == OP_Y:
        if single:
            qubit = int(qs[0, 0])
            row = bits_q[qubit]
            amps *= np.where(row, -1j, 1j)
            bits_q[qubit] = ~row
        else:
            rows = qs[:, 0]
            # Y|0> = i|1>, Y|1> = -i|0>: exponent of i is 1 + 2 * bit per gate.
            exponent = qs.shape[0] + 2 * bits_q[rows].sum(axis=0)
            amps *= PHASE_I_POW[exponent & 3]
            bits_q[rows] ^= True
    elif opcode == OP_S:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= 1j
        else:
            amps *= PHASE_I_POW[bits_q[qs[:, 0]].sum(axis=0) & 3]
    elif opcode == OP_SDG:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= -1j
        else:
            amps *= PHASE_I_POW_CONJ[bits_q[qs[:, 0]].sum(axis=0) & 3]
    elif opcode == OP_T:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= PHASE_T_POW[1]
        else:
            amps *= PHASE_T_POW[bits_q[qs[:, 0]].sum(axis=0) & 7]
    elif opcode == OP_TDG:
        if single:
            amps[bits_q[int(qs[0, 0])]] *= PHASE_T_POW_CONJ[1]
        else:
            amps *= PHASE_T_POW_CONJ[bits_q[qs[:, 0]].sum(axis=0) & 7]
    else:  # pragma: no cover - every registered opcode is handled above
        raise UnsupportedGateError(f"opcode {opcode} cannot be path-simulated")


# ============================================================ bit-sliced rows
def _apply_sliced_error_event(
    rows: list[int],
    amps: np.ndarray,
    qubit: int,
    shot: int,
    code: int,
    n_paths: int,
    segment: int,
) -> None:
    """Apply one sampled Pauli error to a single shot's span of bit-sliced rows.

    ``segment`` is the ``n_paths``-bit mask of one shot.  ``Z`` and ``Y``
    unpack only that shot's bits and apply the same NumPy update to that
    shot's amplitudes as a NumPy-bool block would; an ``X`` flip is one XOR.
    """
    offset = shot * n_paths
    if code == PAULI_X:
        rows[qubit] ^= segment << offset
        return
    bits = (rows[qubit] >> offset) & segment
    span = slice(offset, offset + n_paths)
    if code == PAULI_Z:
        if bits:
            amps[span][_unpack_row(bits, n_paths)] *= -1.0
    elif code == PAULI_Y:
        amps[span] *= np.where(_unpack_row(bits, n_paths), -1j, 1j)
        rows[qubit] ^= segment << offset


def _apply_sliced_frame(
    rows: list[int],
    amps: np.ndarray,
    qubit: int,
    pauli: str,
    spread: int,
    width: int,
) -> None:
    """Apply a Pauli-frame correction over the columns set in ``spread``."""
    if pauli == "X":
        rows[qubit] ^= spread
    elif pauli == "Z":
        hit = rows[qubit] & spread
        if hit:
            amps[_unpack_row(hit, width)] *= -1.0
    else:  # Y
        mask = _unpack_row(spread, width)
        amps[mask] *= np.where(_unpack_row(rows[qubit], width)[mask], -1j, 1j)
        rows[qubit] ^= spread


# ===================================================================== lookup
_ENGINE = FeynmanPathSimulator()


def get_engine(name: str | None = None) -> FeynmanPathSimulator:
    """The shared simulator; ``name`` may be ``None`` or :data:`ENGINE_NAME`."""
    if name is not None and name != ENGINE_NAME:
        raise KeyError(f"unknown engine {name!r}; the only engine is {ENGINE_NAME!r}")
    return _ENGINE


def get_default_engine() -> str:
    """Name of the engine every simulation runs on: :data:`ENGINE_NAME`."""
    return ENGINE_NAME
