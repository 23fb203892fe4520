"""Property-based routing-equivalence harness over random circuits and devices.

Routers are notoriously easy to get subtly wrong -- a stale layout entry or a
missed SWAP silently corrupts every downstream fidelity -- so both registered
routers are pinned here with hypothesis over random reversible circuits on
random *connected* coupling maps (the fixed ``repro-ci`` profile in
``tests/conftest.py`` keeps CI deterministic, mirroring
``tests/sim/test_property_engines.py``).  Two properties form the contract:

* **Connectivity**: every multi-qubit gate of the routed circuit acts on
  physical qubits that induce a connected patch of the coupling map (the
  definition of "executable on the device").
* **Equivalence**: running the routed circuit on the dense ``StatevectorSimulator``
  from the initial-layout embedding of a logical input reproduces the
  unrouted logical outcome at the final-layout positions, via
  ``RoutedCircuit.map_state`` / ``physical_qubits``.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import make_router
from repro.hardware.devices import DeviceModel
from repro.sim import PathState, StatevectorSimulator
from tests.conftest import random_reversible_circuits

ROUTER_NAMES = ("greedy-swap", "lookahead", "lookahead-teleport")


@st.composite
def connected_devices(draw, min_qubits: int = 3, max_qubits: int = 7):
    """Random connected coupling maps: a random tree plus random chords."""
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    edges = set()
    for vertex in range(1, num_qubits):
        parent = draw(st.integers(0, vertex - 1))
        edges.add((parent, vertex))
    chords = [
        (a, b)
        for a in range(num_qubits)
        for b in range(a + 1, num_qubits)
        if (a, b) not in edges
    ]
    if chords:
        edges.update(
            draw(st.lists(st.sampled_from(chords), max_size=len(chords), unique=True))
        )
    return DeviceModel(
        name=f"hyp-{num_qubits}", num_qubits=num_qubits, coupling_map=tuple(sorted(edges))
    )


@st.composite
def routing_instances(draw, max_gates: int = 14):
    """A random connected device plus a random circuit that fits on it."""
    device = draw(connected_devices())
    circuit = draw(
        random_reversible_circuits(
            min_qubits=2, max_qubits=device.num_qubits, max_gates=max_gates
        )
    )
    return device, circuit


def _logical_input(circuit) -> PathState:
    register = list(range(min(3, circuit.num_qubits)))
    return PathState.register_superposition(circuit.num_qubits, register)


@pytest.mark.parametrize("router_name", ROUTER_NAMES)
class TestRoutingEquivalenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(instance=routing_instances())
    def test_every_routed_gate_touches_connected_qubits(self, router_name, instance):
        """Multi-qubit gates only ever act on connected coupling-map patches."""
        device, circuit = instance
        routed = make_router(router_name, device).route(circuit)
        graph = device.to_networkx()
        for instr in routed.circuit.gates:
            if len(instr.qubits) > 1:
                assert nx.is_connected(graph.subgraph(instr.qubits))

    @settings(max_examples=30, deadline=None)
    @given(instance=routing_instances())
    def test_statevector_reproduces_unrouted_logical_outcome(
        self, router_name, instance
    ):
        """Routed + embedded input == embedded logical output, on dense amplitudes."""
        device, circuit = instance
        routed = make_router(router_name, device).route(circuit)
        dense = StatevectorSimulator()
        state = _logical_input(circuit)
        logical_output = dense.run_to_path_state(circuit, state)
        physical_output = dense.run_to_path_state(
            routed.circuit, routed.map_state(state, final=False)
        )
        expected = routed.map_state(logical_output, final=True)
        assert abs(expected.overlap(physical_output)) ** 2 == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(instance=routing_instances())
    def test_layouts_are_consistent_permutations(self, router_name, instance):
        """Initial/final layouts injectively place every logical qubit."""
        device, circuit = instance
        routed = make_router(router_name, device).route(circuit)
        logical = list(range(circuit.num_qubits))
        for final in (False, True):
            placements = routed.physical_qubits(logical, final=final)
            assert len(set(placements)) == len(placements)
            assert all(0 <= p < device.num_qubits for p in placements)
        # The SWAP count is exactly the number of routing-tagged gates.
        assert routed.swap_count == routed.circuit.count_tagged("routing")
