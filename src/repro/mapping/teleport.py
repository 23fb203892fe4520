"""Executed measurement-based teleportation links for H-tree circuits.

:class:`~repro.mapping.routing.TeleportationRouting` *models* the paper's
Sec. 4.3 communication scheme as a cost formula, and the ``htree-teleport``
scenarios charge that cost as an analytic noise multiplier.  This module
*executes* the links instead: every remote gate of an H-tree-mapped circuit
is expanded into entanglement-link CX hops over the free routing-chain
vertices, mid-circuit ``MEASURE`` instructions and classically-controlled
``CPAULI`` corrections -- the measurement-based one-bit teleportation
primitive (Zhou-Leung-Chuang), which stays inside the Feynman-path-simulable
gate set because every hop is ``CX`` + X-basis measurement + Pauli frame.

The expansion is built from three gadgets, chosen per remote gate so the
noise-site count matches the analytic model wherever the gate's structure
allows:

``ladder`` (remote ``CX``, exact cost match)
    Copy the control along the chain -- ``CX c->i1``, ``CX i1->i2``, ...,
    with the final ``CX`` landing on the target -- then disentangle each
    chain vertex with an X measurement, a ``Z`` frame on the control and an
    ``X`` frame resetting the vertex to |0>.  ``d`` CXs in total: the
    analytic model's gate cost (2 sites) plus ``2 (d - 1)`` link sites.

``move`` (remote SWAP tagged ``move:<k>``, exact cost match)
    The router-tree builders tag traversal SWAPs whose destination wire is
    structurally |0> (see :meth:`repro.qram.tree.RouterTree.route_down_level`).
    Such a SWAP *is* a payload move, so it executes as a chain of one-bit
    teleportation hops -- ``CX a->b``; measure ``a`` in X; ``Z`` frame on
    ``b``; ``X`` frame resetting ``a`` -- again ``d`` CXs total.

``control-extension`` (lone remote operand is a control, exact cost match)
    Copy the remote control to the chain vertex adjacent to the other
    operands (``d - 1`` CXs), execute the gate with the copy substituted,
    and disentangle as in the ladder: ``2 (d - 1)`` link sites plus the
    gate's own operand sites.

``bounce`` (any other remote gate: 2 extra link ops per routing qubit)
    Teleport-move the lone remote operand to the chain vertex adjacent to
    the other cluster, execute the gate locally, and teleport it back.  The
    round trip costs ``4 (d - 1)`` link sites where the analytic model
    charges ``2 (d - 1)`` -- the price of a genuine state exchange, paid by
    the upstream router-tree ``CSWAP``s whose empty side is
    router-conditioned and therefore unknowable at compile time.

Every expansion hop draws its measurement outcome from the executing shot's
own seeded stream (see :mod:`repro.sim.engine`), so executed-teleport sweeps
keep the bit-identical-for-any-sharding contract, and all chain vertices are
frame-reset to |0> -- the expanded circuit's ideal output is the logical
ideal output zero-extended over the routing vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.feedforward import (
    LINK_TAG,
    emit_bell_pair,
    emit_bsm_measurements,
    emit_disentangle,
    emit_hop,
)
from repro.circuit.instruction import Instruction
from repro.mapping.device import HTreeDevice, htree_device
from repro.mapping.grid import Grid2D
from repro.mapping.htree import HTreeEmbedding
from repro.sim.paths import PathState

__all__ = ["LINK_TAG", "TeleportExpansion", "expand_teleport_links"]

#: Operand positions that act as controls, per gate (``CX``/``CCX``/``MCX``
#: use all-but-last; ``CSWAP`` uses its first operand).
_CONTROL_SLICES = {"CX": slice(0, -1), "CCX": slice(0, -1), "MCX": slice(0, -1)}


def _move_destination(instr: Instruction) -> int | None:
    """Operand index a ``move:<k>`` tag declares structurally empty, if any."""
    for tag in instr.tags:
        if tag.startswith("move:"):
            return int(tag.split(":", 1)[1])
    return None


@dataclass(frozen=True)
class TeleportExpansion:
    """An H-tree circuit with its remote gates executed as teleported links.

    Attributes
    ----------
    circuit:
        The expanded circuit on the executable H-tree device's vertex space
        (logical qubits keep their indices, routing-chain vertices follow).
    layout:
        The :class:`~repro.mapping.device.HTreeDevice` the expansion hops
        across.
    remote_gates:
        Number of logical gates that needed a teleported link.
    link_operations:
        Entanglement-link CX hops emitted (instructions tagged
        ``"teleport"``).
    measurements:
        Mid-circuit measurements emitted (one per link hop / ladder rung).
    """

    circuit: QuantumCircuit
    layout: HTreeDevice
    remote_gates: int
    link_operations: int
    measurements: int
    #: True when payload moves use constant-depth entanglement swapping
    #: (Bell pairs + Bell-state measurements) instead of sequential hops.
    fused: bool = False

    def map_state(self, state: PathState) -> PathState:
        """Zero-extend a logical :class:`PathState` over the routing vertices.

        Logical qubits keep their indices on the device, so both the input
        state and the expected ideal output embed the same way -- chain
        vertices start in |0> and are frame-reset to |0> by every link.
        """
        if state.num_qubits != self.layout.num_logical:
            raise ValueError(
                f"state has {state.num_qubits} qubits, expansion expects "
                f"{self.layout.num_logical} logical qubits"
            )
        bits = np.zeros(
            (state.num_paths, self.layout.device.num_qubits), dtype=bool
        )
        bits[:, : self.layout.num_logical] = state.bits
        return PathState(bits=bits, amplitudes=state.amplitudes.copy())


class _Expander:
    """Single-pass expansion state: the output circuit plus counters."""

    def __init__(
        self, layout: HTreeDevice, source: QuantumCircuit, *, fused: bool = False
    ) -> None:
        self.layout = layout
        self.fused = fused
        # Logical registers stay valid: logical qubits keep their indices on
        # the device, routing-chain vertices are appended after them.
        self.out = QuantumCircuit(
            num_qubits=layout.device.num_qubits,
            registers=dict(source.registers),
            metadata=dict(source.metadata),
        )
        self.remote_gates = 0
        self.link_operations = 0
        self.measurements = 0

    # ------------------------------------------------------------- primitives
    def _link_cx(self, control: int, target: int) -> None:
        self.out.cx(control, target, tags=(LINK_TAG,))
        self.link_operations += 1

    def _disentangle(self, vertex: int, control: int) -> None:
        """X-measure a ladder copy; Z-frame the original, reset the vertex."""
        emit_disentangle(self.out, vertex, control)
        self.measurements += 1

    def _hop(self, source: int, target: int) -> None:
        """One-bit teleportation hop: move the payload ``source -> target``.

        ``target`` must be in |0>: a routing-chain vertex (fresh or
        frame-reset by the previous hop) or a ``move:<k>``-tagged empty wire.
        """
        emit_hop(self.out, source, target)
        self.link_operations += 1
        self.measurements += 1

    def _move(self, source: int, chain: tuple[int, ...], target: int) -> None:
        """Teleport a payload along ``chain`` from ``source`` into ``target``."""
        if self.fused:
            self._fused_move(source, chain, target)
            return
        stops = [source, *chain, target]
        for a, b in zip(stops, stops[1:]):
            self._hop(a, b)

    def _fused_move(self, source: int, chain: tuple[int, ...], target: int) -> None:
        """Constant-depth payload move: entanglement swapping over ``chain``.

        The chain wires plus the target pair up into Bell pairs, prepared in
        one layer (each ``H`` branches the path set, see
        :mod:`repro.circuit.ir`), then one layer of Bell-state-measurement
        CXs stitches payload and pairs together; every BSM's ``Z``-basis
        measurement collapses its pair's branch, so the link leaves the
        branch level where it found it.  Depth is constant in the chain
        length -- an ``H`` layer, two CX layers and the measurements --
        where the sequential hop chain needs one CX layer per hop; the
        classical frame corrections are free either way.

        With an odd wire count (even chain length) one plain hop brings the
        payload onto the first chain vertex and the remaining even run
        teleports fused; the hop CX sits in the Bell layer, so depth stays
        constant.

        Exactness of the frame: stage ``i``'s BSM outcomes ``(x_i, z_i)``
        leave the payload carrying ``X**z_i Z**x_i``, composed outermost
        stage last, so the corrections are emitted per stage in reverse
        order -- ``CPAULI X`` on ``z_i`` then ``CPAULI Z`` on ``x_i``.
        XOR-merging the cbits instead would drop a ``(-1)**(x z)`` global
        phase per stage, which the amplitude-level engine tests would see.
        """
        wires = [*chain, target]
        if len(wires) % 2 == 1:
            self._hop(source, wires[0])
            source = wires[0]
            wires = wires[1:]
        if not wires:
            return
        pairs = [(wires[i], wires[i + 1]) for i in range(0, len(wires), 2)]
        for a, b in pairs:
            emit_bell_pair(self.out, a, b)
            self.link_operations += 1
        bsm_pairs = [(source, wires[0])] + [
            (wires[2 * i - 1], wires[2 * i]) for i in range(1, len(pairs))
        ]
        for a, b in bsm_pairs:
            self._link_cx(a, b)
        records = []
        for a, b in bsm_pairs:
            x, z = emit_bsm_measurements(self.out, a, b)
            self.measurements += 2
            records.append((a, b, x, z))
        for _, _, x, z in reversed(records):
            self.out.cpauli("X", target, [z], tags=(LINK_TAG,))
            self.out.cpauli("Z", target, [x], tags=(LINK_TAG,))
        for a, b, x, z in records:
            self.out.cpauli("X", a, [x], tags=(LINK_TAG,))
            self.out.cpauli("X", b, [z], tags=(LINK_TAG,))

    # ------------------------------------------------------------ gate shapes
    def ladder_cx(self, instr: Instruction, chain: tuple[int, ...]) -> None:
        """Remote CX: fan the control down the chain, fire, disentangle."""
        control, target = instr.qubits
        stops = [control, *chain]
        for a, b in zip(stops, stops[1:]):
            self._link_cx(a, b)
        self.out.cx(stops[-1], target, tags=instr.tags)
        for vertex in reversed(chain):
            self._disentangle(vertex, control)

    def extend_control(
        self, instr: Instruction, lone: int, chain: tuple[int, ...]
    ) -> None:
        """Remote control: substitute a chain-end copy of it into the gate."""
        stops = [instr.qubits[lone], *chain]
        for a, b in zip(stops, stops[1:]):
            self._link_cx(a, b)
        substituted = list(instr.qubits)
        substituted[lone] = stops[-1]
        self.out.append(
            Instruction(gate=instr.gate, qubits=tuple(substituted), tags=instr.tags)
        )
        for vertex in reversed(chain):
            self._disentangle(vertex, instr.qubits[lone])

    def bounce(self, instr: Instruction, lone: int, chain: tuple[int, ...]) -> None:
        """General remote gate: round-trip the lone operand over the chain.

        ``chain`` is oriented from the lone operand's cluster towards the
        other operands, so the landing vertex ``chain[-1]`` is adjacent to
        them and the substituted gate acts on a connected patch.
        """
        source = instr.qubits[lone]
        self._move(source, chain[:-1], chain[-1])
        substituted = list(instr.qubits)
        substituted[lone] = chain[-1]
        self.out.append(
            Instruction(gate=instr.gate, qubits=tuple(substituted), tags=instr.tags)
        )
        self._move(chain[-1], tuple(reversed(chain[:-1])), source)


def expand_teleport_links(
    circuit: QuantumCircuit,
    embedding: HTreeEmbedding,
    *,
    calibration=None,
    name: str | None = None,
    fused: bool = False,
) -> TeleportExpansion:
    """Expand every remote gate of ``circuit`` into executed teleport links.

    ``circuit`` must be an H-tree-mappable QRAM circuit (register naming per
    :meth:`~repro.mapping.htree.HTreeEmbedding.logical_positions`); remote
    gates may span exactly one tree edge, which holds for every router-tree
    circuit because gates only couple a node to its parent.  ``calibration``
    optionally supplies the device error rates, as in
    :func:`~repro.mapping.device.htree_device`.

    Returns a :class:`TeleportExpansion` whose circuit the noisy Feynman
    engines execute directly: link noise arises from the hop CXs' real gate
    noise instead of an analytic multiplier, measurement outcomes come from
    each shot's seeded stream, and Pauli-frame corrections are free (and
    noise-free), mirroring hardware Pauli-frame tracking.

    With ``fused=True`` every payload move (``move:<k>`` SWAPs and bounce
    round-trips) executes as a constant-depth entanglement-swapping link --
    Bell pairs over the chain prepared in one layer, a layer of Bell-state
    measurements, and exact per-stage frame corrections (see
    :meth:`_Expander._fused_move`) -- instead of a depth-``d`` hop chain.
    The Bell-pair ``H`` gates branch the path set, so fused expansions
    require the bounded-branching engine support of :mod:`repro.sim.engine`
    and are subject to the branch budget of
    :data:`repro.circuit.ir.MAX_BRANCHES`.
    """
    positions = embedding.logical_positions(circuit)
    layout = htree_device(embedding, circuit, calibration=calibration, name=name)
    expander = _Expander(layout, circuit, fused=fused)
    out = expander.out

    for instr in circuit.instructions:
        if instr.is_barrier:
            out.append(instr)
            continue
        coordinates = [positions[q] for q in instr.qubits]
        distance = max(
            (
                Grid2D.manhattan_distance(a, b)
                for i, a in enumerate(coordinates)
                for b in coordinates[i + 1 :]
            ),
            default=0,
        )
        if distance <= 1:
            out.append(instr)
            continue

        expander.remote_gates += 1
        distinct = sorted(set(coordinates))
        if len(distinct) != 2:
            raise ValueError(
                f"remote gate {instr} spans {len(distinct)} clusters; "
                "teleport expansion supports gates along a single tree edge"
            )
        side_a = [i for i, c in enumerate(coordinates) if c == distinct[0]]
        side_b = [i for i, c in enumerate(coordinates) if c == distinct[1]]
        chain = layout.chain_between(distinct[0], distinct[1])
        if chain is None or not chain:
            raise ValueError(
                f"no routing chain between {distinct[0]} and {distinct[1]} "
                f"for remote gate {instr}"
            )

        move_to = _move_destination(instr)
        if instr.gate == "CX":
            oriented = chain if coordinates[0] == distinct[0] else tuple(reversed(chain))
            expander.ladder_cx(instr, oriented)
            continue
        if instr.gate == "SWAP" and move_to is not None:
            source = instr.qubits[1 - move_to]
            source_side = coordinates[1 - move_to]
            oriented = (
                chain if source_side == distinct[0] else tuple(reversed(chain))
            )
            expander._move(source, oriented, instr.qubits[move_to])
            continue
        # Control extension and bounce relocate exactly one operand, so one
        # side must hold exactly one; a gate split 2-2 (or wider) across the
        # edge would stay non-local after the relocation.
        if len(side_a) != 1 and len(side_b) != 1:
            raise ValueError(
                f"remote gate {instr} has {len(side_a)} and {len(side_b)} "
                "operands on the two clusters; teleport expansion needs a "
                "lone operand on one side"
            )
        # The lone remote operand: the side with fewer operands (ties go to
        # the side holding the later operand, e.g. a remote SWAP partner).
        lone = (
            side_a[0]
            if len(side_a) < len(side_b)
            else side_b[0]
            if len(side_b) < len(side_a)
            else max(side_a[0], side_b[0])
        )
        lone_side = coordinates[lone]
        oriented = chain if lone_side == distinct[0] else tuple(reversed(chain))
        controls = _CONTROL_SLICES.get(instr.gate)
        is_control = (
            lone in range(*controls.indices(len(instr.qubits)))
            if controls is not None
            else instr.gate == "CSWAP" and lone == 0
        )
        if is_control and len({coordinates[i] for i in range(len(coordinates)) if i != lone}) == 1:
            expander.extend_control(instr, lone, oriented)
        else:
            expander.bounce(instr, lone, oriented)

    return TeleportExpansion(
        circuit=out,
        layout=layout,
        remote_gates=expander.remote_gates,
        link_operations=expander.link_operations,
        measurements=expander.measurements,
        fused=fused,
    )
