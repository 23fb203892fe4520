"""Recursive H-tree embedding of the QRAM router tree into a 2D grid (Sec. 4.2).

The complete binary tree behind a capacity-``2**m`` QRAM has ``m + 1`` node
levels: the router nodes at levels ``0 .. m-1`` and the leaf data nodes at
level ``m``.  The H-tree construction places the root at the centre of the
grid and alternates horizontal and vertical arms whose length halves every
two levels, which is the classic VLSI layout (Browning 1980) the paper builds
on.  The resulting placement is a *topological minor* embedding: every tree
edge maps to a straight grid path whose interior vertices carry no logical
information and can therefore serve as routing qubits for the
teleportation-based communication of Sec. 4.3.

Grid-vertex roles (Fig. 6a legend):

* ``QRAM`` -- internal router nodes (router + wire qubits of the node);
* ``DATA`` -- leaf data nodes;
* ``ROUTING`` -- interior vertices of edge paths (used for teleportation);
* ``UNUSED`` -- everything else (the paper reports ~25% of the grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.circuit import QuantumCircuit
from repro.mapping.grid import Coordinate, Grid2D

NodeId = tuple[int, int]


class QubitRole(Enum):
    """Role of a physical grid qubit in the H-tree layout."""

    QRAM = "qram"
    DATA = "data"
    ROUTING = "routing"
    UNUSED = "unused"


def _arm_lengths(depth: int) -> list[int]:
    """Arm length of the edges between level ``i-1`` and ``i`` for ``i = 1..depth``.

    Arms halve every two levels so the four grandchild subtrees of any node
    tile the four quadrants around it without overlapping.
    """
    return [1 << ((depth - i) // 2) for i in range(1, depth + 1)]


@dataclass
class HTreeEmbedding:
    """H-tree placement of a depth-``tree_depth`` complete binary tree.

    Parameters
    ----------
    tree_depth:
        Number of edge levels ``m`` (the QRAM width); the embedded tree has
        ``m + 1`` node levels and ``2**m`` leaves.
    """

    tree_depth: int
    grid: Grid2D = field(init=False)
    node_positions: dict[NodeId, Coordinate] = field(init=False, default_factory=dict)
    edge_paths: dict[tuple[NodeId, NodeId], list[Coordinate]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.tree_depth < 1:
            raise ValueError("tree depth must be at least 1")
        arms = _arm_lengths(self.tree_depth)
        # Edge i (1-based) is horizontal when i is odd, vertical when even.
        x_half = sum(arm for i, arm in enumerate(arms, start=1) if i % 2 == 1)
        y_half = sum(arm for i, arm in enumerate(arms, start=1) if i % 2 == 0)
        self.grid = Grid2D(rows=2 * y_half + 1, cols=2 * x_half + 1)
        root = (y_half, x_half)
        self._place(node=(0, 0), position=root, arms=arms)

    # ----------------------------------------------------------- construction
    def _place(self, node: NodeId, position: Coordinate, arms: list[int]) -> None:
        level, index = node
        self.node_positions[node] = position
        if level == self.tree_depth:
            return
        edge_number = level + 1  # 1-based edge level
        arm = arms[edge_number - 1]
        horizontal = edge_number % 2 == 1
        for side, direction in ((0, -1), (1, +1)):
            child: NodeId = (level + 1, 2 * index + side)
            if horizontal:
                child_position = (position[0], position[1] + direction * arm)
            else:
                child_position = (position[0] + direction * arm, position[1])
            self.edge_paths[(node, child)] = self.grid.straight_path(
                position, child_position
            )
            self._place(child, child_position, arms)

    # -------------------------------------------------------------- inspection
    def node_position(self, level: int, index: int) -> Coordinate:
        """Grid coordinate of tree node ``(level, index)``."""
        return self.node_positions[(level, index)]

    def edge_distance(self, parent: NodeId, child: NodeId) -> int:
        """Grid distance between a parent node and one of its children."""
        path = self.edge_paths[(parent, child)]
        return len(path) - 1

    def roles(self) -> dict[Coordinate, QubitRole]:
        """Role of every grid coordinate (Fig. 6a classification)."""
        roles = {coord: QubitRole.UNUSED for coord in self.grid.coordinates()}
        for (parent, child), path in self.edge_paths.items():
            for coord in path[1:-1]:
                roles[coord] = QubitRole.ROUTING
        for (level, _index), coord in self.node_positions.items():
            roles[coord] = QubitRole.DATA if level == self.tree_depth else QubitRole.QRAM
        return roles

    def role_counts(self) -> dict[QubitRole, int]:
        """Number of grid qubits per role (used for the 25%-unused claim)."""
        counts = {role: 0 for role in QubitRole}
        for role in self.roles().values():
            counts[role] += 1
        return counts

    def unused_fraction(self) -> float:
        """Fraction of grid qubits that carry no logical or routing duty."""
        counts = self.role_counts()
        return counts[QubitRole.UNUSED] / self.grid.num_qubits

    # -------------------------------------------------- logical qubit placement
    def logical_positions(self, circuit: QuantumCircuit) -> dict[int, Coordinate]:
        """Map every logical qubit of a router-tree QRAM circuit to a grid position.

        Register naming follows :class:`~repro.qram.tree.RouterTree`:
        ``router_L{u}``/``wire_L{u}``/``tree_data_L{u}`` live on node ``(u, j)``,
        ``leaf_data``/``leaf_ancilla`` on node ``(tree_depth, i)``.  The
        address, SQC and bus registers enter the tree at the root and are
        co-located with it (their communication to the root is charged zero
        distance; the overhead of interest is internal to the tree).
        """
        positions: dict[int, Coordinate] = {}
        root = self.node_positions[(0, 0)]
        for name, register in circuit.registers.items():
            if name.startswith(("router_L", "wire_L", "tree_data_L")):
                level = int(name.rsplit("L", 1)[1])
                for index, qubit in enumerate(register):
                    positions[qubit] = self.node_positions[(level, index)]
            elif name in ("leaf_data", "leaf_ancilla"):
                for index, qubit in enumerate(register):
                    positions[qubit] = self.node_positions[(self.tree_depth, index)]
            else:
                for qubit in register:
                    positions[qubit] = root
        return positions

    def routing_resource_summary(self) -> dict:
        """Aggregate layout statistics reported by the mapping benchmarks."""
        counts = self.role_counts()
        return {
            "tree_depth": self.tree_depth,
            "grid_rows": self.grid.rows,
            "grid_cols": self.grid.cols,
            "grid_qubits": self.grid.num_qubits,
            "qram_nodes": counts[QubitRole.QRAM],
            "data_nodes": counts[QubitRole.DATA],
            "routing_qubits": counts[QubitRole.ROUTING],
            "unused_qubits": counts[QubitRole.UNUSED],
            "unused_fraction": self.unused_fraction(),
        }
