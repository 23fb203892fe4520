"""SWAP-insertion routing for sparse device topologies (Appendix A).

The paper transpiles its small virtual QRAMs onto IBM hardware with Qiskit's
SABRE pass and reports the number of extra SWAP gates forced by the devices'
sparse connectivity (5 / 20 / 65 / 99 for the four Figure 12 configurations).
Qiskit is not available offline, so this module provides compact stand-ins
behind a name-based **router registry**:

``"greedy-swap"``
    :class:`GreedySwapRouter` (this module, the default): walks the circuit
    in program order and, whenever a gate's operands do not form a connected
    patch of the coupling map, moves the farthest operand one coupling edge
    at a time towards the rest, inserting SWAP gates (tagged ``"routing"``)
    and updating the logical-to-physical layout as it goes.

``"lookahead"``
    :class:`~repro.hardware.lookahead.LookaheadSwapRouter`: SABRE-style
    front-layer routing with an extended lookahead window, a decay-weighted
    distance heuristic and a forward/backward/forward pass that also selects
    the initial layout.

Greedy routing is not as SWAP-frugal as SABRE, but it preserves exactly what
Figure 12 needs: a functionally correct physical circuit whose extra SWAPs
scale with the mismatch between the QRAM's connectivity demands and the
device, and which can be fed to the noisy Feynman-path simulator.  Routers
resolve by name through :func:`make_router`; a scenario names its router in
:attr:`~repro.scenarios.spec.ScenarioSpec.router`, which defaults to
:data:`DEFAULT_ROUTER`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import networkx as nx
import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.hardware.devices import DeviceModel
from repro.sim.paths import PathState


@dataclass
class RoutedCircuit:
    """Result of routing a logical circuit onto a device."""

    circuit: QuantumCircuit
    device: DeviceModel
    initial_layout: dict[int, int]
    final_layout: dict[int, int]

    @property
    def swap_count(self) -> int:
        """Number of SWAP gates inserted by the router."""
        return self.circuit.count_tagged("routing")

    @property
    def link_operations(self) -> int:
        """Teleport-hop CX gates inserted by a teleport-aware router."""
        return sum(
            1
            for instr in self.circuit.gates
            if instr.gate == "CX" and "teleport" in instr.tags
        )

    def physical_qubits(self, logical_qubits: list[int], *, final: bool = True) -> list[int]:
        """Physical positions of ``logical_qubits`` (final layout by default)."""
        layout = self.final_layout if final else self.initial_layout
        return [layout[q] for q in logical_qubits]

    def map_state(self, state: PathState, *, final: bool = False) -> PathState:
        """Embed a logical :class:`PathState` into the physical qubit space.

        Input states use the initial layout (``final=False``); expected output
        states use the final layout, since routing leaves logical qubits at
        their post-routing physical positions.
        """
        layout = self.final_layout if final else self.initial_layout
        bits = np.zeros((state.num_paths, self.device.num_qubits), dtype=bool)
        for logical in range(state.num_qubits):
            bits[:, layout[logical]] = state.bits[:, logical]
        return PathState(bits=bits, amplitudes=state.amplitudes.copy())


def check_layout(
    circuit: QuantumCircuit, layout: dict[int, int], device: DeviceModel
) -> None:
    """Validate a logical-to-physical layout for ``circuit`` on ``device``."""
    if set(layout) != set(range(circuit.num_qubits)):
        raise ValueError("initial layout must cover every logical qubit exactly once")
    placements = list(layout.values())
    if len(set(placements)) != len(placements):
        raise ValueError("initial layout maps two logical qubits to one physical qubit")
    for physical in placements:
        if not 0 <= physical < device.num_qubits:
            raise ValueError(f"physical qubit {physical} outside the device")


def apply_swap(
    physical_a: int,
    physical_b: int,
    logical_to_physical: dict[int, int],
    physical_to_logical: dict[int, int],
    routed: QuantumCircuit | None,
) -> None:
    """Record one routing SWAP and update both layout directions.

    ``routed`` may be ``None`` for layout-selection passes that only need the
    final layout, not the routed instructions.
    """
    if routed is not None:
        routed.append(
            Instruction(
                gate="SWAP",
                qubits=(physical_a, physical_b),
                tags=frozenset({"routing"}),
            )
        )
    logical_a = physical_to_logical.get(physical_a)
    logical_b = physical_to_logical.get(physical_b)
    if logical_a is not None:
        logical_to_physical[logical_a] = physical_b
    if logical_b is not None:
        logical_to_physical[logical_b] = physical_a
    if logical_a is not None:
        physical_to_logical[physical_b] = logical_a
    elif physical_b in physical_to_logical:
        del physical_to_logical[physical_b]
    if logical_b is not None:
        physical_to_logical[physical_a] = logical_b
    elif physical_a in physical_to_logical:
        del physical_to_logical[physical_a]


@dataclass
class GreedySwapRouter:
    """Route circuits onto a :class:`DeviceModel` by greedy SWAP insertion."""

    name: ClassVar[str] = "greedy-swap"

    device: DeviceModel
    _graph: nx.Graph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._graph = self.device.to_networkx()
        if not nx.is_connected(self._graph):
            raise ValueError("device coupling map must be connected")

    # --------------------------------------------------------------- routing
    def route(
        self,
        circuit: QuantumCircuit,
        initial_layout: dict[int, int] | None = None,
    ) -> RoutedCircuit:
        """Insert SWAPs so every gate acts on a connected patch of the device.

        ``initial_layout`` maps logical to physical qubits; the identity
        layout is used when omitted.  The routed circuit acts on the device's
        physical qubit indices.
        """
        if circuit.num_qubits > self.device.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but device "
                f"{self.device.name} has only {self.device.num_qubits}"
            )
        if initial_layout is None:
            initial_layout = {q: q for q in range(circuit.num_qubits)}
        self._check_layout(circuit, initial_layout)

        logical_to_physical = dict(initial_layout)
        physical_to_logical = {p: l for l, p in logical_to_physical.items()}
        routed = QuantumCircuit(
            num_qubits=self.device.num_qubits, metadata=dict(circuit.metadata)
        )

        for instr in circuit.instructions:
            if instr.is_barrier:
                physical = tuple(logical_to_physical[q] for q in instr.qubits)
                routed.append(Instruction(gate="BARRIER", qubits=physical))
                continue
            if len(instr.qubits) > 1:
                self._make_executable(
                    instr.qubits, logical_to_physical, physical_to_logical, routed
                )
            physical = tuple(logical_to_physical[q] for q in instr.qubits)
            routed.append(
                Instruction(gate=instr.gate, qubits=physical, tags=instr.tags)
            )

        return RoutedCircuit(
            circuit=routed,
            device=self.device,
            initial_layout=dict(initial_layout),
            final_layout=dict(logical_to_physical),
        )

    # ----------------------------------------------------------------- helpers
    def _check_layout(self, circuit: QuantumCircuit, layout: dict[int, int]) -> None:
        check_layout(circuit, layout, self.device)

    def _operands_connected(self, physical: list[int]) -> bool:
        if len(physical) <= 1:
            return True
        subgraph = self._graph.subgraph(physical)
        return nx.is_connected(subgraph)

    def _make_executable(
        self,
        logical_operands: tuple[int, ...],
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: QuantumCircuit,
    ) -> None:
        """Insert SWAPs until the gate's operands form a connected patch.

        The operands already connected to the first operand form the *core*;
        each round the closest outside operand walks along a shortest path
        until it touches the core, so the core grows by at least one operand
        per round and the procedure terminates after at most
        ``len(operands) - 1`` rounds.
        """
        anchor_logical = logical_operands[0]
        for _ in range(len(logical_operands)):
            physical = [logical_to_physical[q] for q in logical_operands]
            if self._operands_connected(physical):
                return
            core = self._core_component(
                logical_operands, anchor_logical, logical_to_physical
            )
            core_physical = {logical_to_physical[q] for q in core}
            outside = [q for q in logical_operands if q not in core]
            mover, path = self._closest_outside_path(
                outside, core_physical, logical_to_physical
            )
            # Walk the mover along the path until it is adjacent to the core
            # (the last path vertex is inside the core, so stop one short).
            for step_index in range(len(path) - 2):
                self._emit_swap(
                    path[step_index],
                    path[step_index + 1],
                    logical_to_physical,
                    physical_to_logical,
                    routed,
                )
        physical = [logical_to_physical[q] for q in logical_operands]
        if not self._operands_connected(physical):  # pragma: no cover - safety net
            raise RuntimeError("routing failed to converge")

    def _core_component(
        self,
        logical_operands: tuple[int, ...],
        anchor_logical: int,
        logical_to_physical: dict[int, int],
    ) -> set[int]:
        """Operands already connected (via the coupling map) to the anchor."""
        physical_to_operand = {
            logical_to_physical[q]: q for q in logical_operands
        }
        subgraph = self._graph.subgraph(physical_to_operand)
        component = nx.node_connected_component(
            subgraph, logical_to_physical[anchor_logical]
        )
        return {physical_to_operand[p] for p in component}

    def _closest_outside_path(
        self,
        outside: list[int],
        core_physical: set[int],
        logical_to_physical: dict[int, int],
    ) -> tuple[int, list[int]]:
        """The outside operand closest to the core and its shortest path there."""
        best_operand: int | None = None
        best_path: list[int] | None = None
        for operand in outside:
            source = logical_to_physical[operand]
            lengths, paths = nx.single_source_dijkstra(self._graph, source)
            reachable = [p for p in core_physical if p in lengths]
            target = min(reachable, key=lambda p: lengths[p])
            if best_path is None or lengths[target] < len(best_path) - 1:
                best_operand = operand
                best_path = paths[target]
        assert best_operand is not None and best_path is not None
        return best_operand, best_path

    @staticmethod
    def _emit_swap(
        physical_a: int,
        physical_b: int,
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        routed: QuantumCircuit,
    ) -> None:
        apply_swap(
            physical_a, physical_b, logical_to_physical, physical_to_logical, routed
        )


# ===================================================================== registry
_ROUTERS: dict[str, type] = {}

#: Default value of ``ScenarioSpec.router``, and the router of Figure 12.
DEFAULT_ROUTER = "greedy-swap"


def register_router(router_class: type) -> type:
    """Register ``router_class`` under its ``name``."""
    _ROUTERS[router_class.name] = router_class
    return router_class


def available_routers() -> list[str]:
    """Sorted names of every registered router."""
    return sorted(_ROUTERS)


def get_router_class(name: str) -> type:
    """Resolve a registered router name to its class."""
    try:
        return _ROUTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown router {name!r}; available: {available_routers()}"
        ) from None


def make_router(name: str, device: DeviceModel, **options):
    """Instantiate the router registered as ``name`` for ``device``.

    Unlike the engine, routers are stateful per device (they precompute the
    coupling graph and distance tables), so the registry stores classes and
    this factory builds a fresh instance; ``options`` forward to the router's
    constructor (e.g. the lookahead window size).
    """
    return get_router_class(name)(device, **options)


def get_default_router() -> str:
    """Name of the default router, :data:`DEFAULT_ROUTER`.

    Every spec names its router; this is the value
    :attr:`ScenarioSpec.router <repro.scenarios.ScenarioSpec.router>`
    defaults to, and the router Figure 12 uses.
    """
    return DEFAULT_ROUTER


register_router(GreedySwapRouter)
