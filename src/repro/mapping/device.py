"""Materialise an H-tree embedding as a routable :class:`DeviceModel`.

:class:`~repro.mapping.mapped_circuit.MappedQRAM` *accounts* communication
overhead analytically (Figure 8); the scenario subsystem needs the routing to
be **executable** so that every inserted SWAP actually incurs gate noise.
This module bridges the two views: it turns an
:class:`~repro.mapping.htree.HTreeEmbedding` into a coupling map any
registered SWAP router (:func:`repro.hardware.router.make_router`: the
greedy walker or the SABRE-style lookahead pass) can route onto.

Each H-tree *node* hosts a small cluster of logical qubits (router + wire +
data qubits of that tree node; address, SQC and bus registers co-locate with
the root).  The device graph therefore has one vertex per logical qubit plus
one vertex per interior grid point of every tree-edge path:

* qubits inside one node cluster are fully connected (a node is a single
  physical region -- local operations are free of routing);
* each tree edge becomes a chain of routing-qubit vertices whose endpoints
  couple to every qubit of the parent and child clusters, so the hop count
  between two clusters equals the embedding's grid (arm) distance.

Routing a QRAM circuit onto this device reproduces Figure 8's swap-overhead
geometry -- the long top-level arms of the H-tree (length ``~2**(m/2)``)
force proportionally long SWAP chains -- while producing a functionally
correct physical circuit the noisy Feynman-path engines can execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.devices import DeviceModel
from repro.hardware.router import DEFAULT_ROUTER, make_router
from repro.mapping.htree import HTreeEmbedding

#: Grid coordinate type re-exported for chain lookups.
Coordinate = tuple[int, int]


@dataclass(frozen=True)
class HTreeDevice:
    """An executable H-tree device plus the layout that places a circuit on it.

    Attributes
    ----------
    device:
        Coupling map over ``num_logical + num_routing`` vertices (logical
        qubits keep their circuit indices; routing-chain vertices follow).
    initial_layout:
        Identity placement of every logical qubit on its own device vertex,
        ready to pass to :meth:`~repro.hardware.router.GreedySwapRouter.route`.
    num_logical:
        Number of logical circuit qubits.
    num_routing:
        Number of routing-chain vertices appended after the logical qubits.
    chain_vertices:
        Interior routing-chain vertex ids of every materialised tree edge,
        keyed ``(parent grid coordinate, child grid coordinate)`` and ordered
        parent to child.  This is the lookup the executed-teleportation
        expansion (:mod:`repro.mapping.teleport`) hops along.
    """

    device: DeviceModel
    initial_layout: dict[int, int]
    num_logical: int
    num_routing: int
    chain_vertices: dict[tuple[Coordinate, Coordinate], tuple[int, ...]] = field(
        default_factory=dict
    )

    def chain_between(
        self, a: Coordinate, b: Coordinate
    ) -> tuple[int, ...] | None:
        """Interior chain vertices from coordinate ``a`` to ``b``, or ``None``.

        Accepts either orientation of a materialised tree edge and returns
        the chain ordered ``a -> b``.
        """
        chain = self.chain_vertices.get((a, b))
        if chain is not None:
            return chain
        chain = self.chain_vertices.get((b, a))
        if chain is not None:
            return tuple(reversed(chain))
        return None

    def route(self, circuit: QuantumCircuit, *, router: str = DEFAULT_ROUTER):
        """Route ``circuit`` onto this device from its cluster layout.

        ``router`` names a registered router
        (:func:`repro.hardware.router.make_router`).  Returns a
        :class:`~repro.hardware.router.RoutedCircuit`.
        """
        return make_router(router, self.device).route(circuit, self.initial_layout)


def htree_device(
    embedding: HTreeEmbedding,
    circuit: QuantumCircuit,
    *,
    name: str | None = None,
    calibration: DeviceModel | None = None,
) -> HTreeDevice:
    """Build the executable device for ``circuit`` under ``embedding``.

    ``calibration`` optionally supplies the error rates (single/two-qubit,
    idle) the device should carry; topology always comes from the embedding.
    Raises if the circuit contains a logical qubit the embedding cannot
    place (see :meth:`HTreeEmbedding.logical_positions`).
    """
    positions = embedding.logical_positions(circuit)
    missing = set(range(circuit.num_qubits)) - set(positions)
    if missing:
        raise ValueError(
            f"{len(missing)} logical qubits have no H-tree position: "
            f"{sorted(missing)[:8]}"
        )

    clusters: dict[tuple[int, int], list[int]] = {}
    for qubit in range(circuit.num_qubits):
        clusters.setdefault(positions[qubit], []).append(qubit)

    edges: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        if a != b:
            edges.add((min(a, b), max(a, b)))

    for members in clusters.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                connect(a, b)

    next_vertex = circuit.num_qubits
    chain_vertices: dict[tuple[Coordinate, Coordinate], tuple[int, ...]] = {}
    for (parent, child), path in sorted(embedding.edge_paths.items()):
        parent_cluster = clusters.get(path[0], [])
        child_cluster = clusters.get(path[-1], [])
        if not parent_cluster or not child_cluster:
            # A tree region the circuit allocates no qubits in contributes
            # no executable couplings.
            continue
        chain: list[int] = []
        for _ in path[1:-1]:
            chain.append(next_vertex)
            next_vertex += 1
        chain_vertices[(path[0], path[-1])] = tuple(chain)
        if chain:
            for qubit in parent_cluster:
                connect(qubit, chain[0])
            for a, b in zip(chain, chain[1:]):
                connect(a, b)
            for qubit in child_cluster:
                connect(chain[-1], qubit)
        else:
            for a in parent_cluster:
                for b in child_cluster:
                    connect(a, b)

    rates = (
        dict(
            single_qubit_error=calibration.single_qubit_error,
            two_qubit_error=calibration.two_qubit_error,
            readout_error=calibration.readout_error,
            idle_error=calibration.idle_error,
        )
        if calibration is not None
        else {}
    )
    device = DeviceModel(
        name=name or f"htree-m{embedding.tree_depth}",
        num_qubits=next_vertex,
        coupling_map=tuple(sorted(edges)),
        **rates,
    )
    return HTreeDevice(
        device=device,
        initial_layout={q: q for q in range(circuit.num_qubits)},
        num_logical=circuit.num_qubits,
        num_routing=next_vertex - circuit.num_qubits,
        chain_vertices=chain_vertices,
    )
