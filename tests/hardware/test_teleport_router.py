"""Teleport-aware lookahead router: registry, relocations, determinism.

The cross-cutting correctness property (routed circuit == logical circuit
through ``map_state`` on dense amplitudes, teleports included) lives in the
shared property harness (``test_property_router.py``); this file pins the
router-specific behaviours.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import TeleportSwapRouter, available_routers, make_router
from repro.hardware.devices import DeviceModel
from repro.sim.engine import get_engine
from repro.sim.fidelity import shot_fidelities
from repro.sim.paths import PathState
from repro.sim.statevector import StatevectorSimulator


def line_device(num_qubits: int) -> DeviceModel:
    return DeviceModel(
        name=f"line{num_qubits}",
        num_qubits=num_qubits,
        coupling_map=tuple((i, i + 1) for i in range(num_qubits - 1)),
    )


def far_apart_cx() -> tuple[QuantumCircuit, dict[int, int], DeviceModel]:
    """Two logical qubits pinned to the ends of a 10-vertex line."""
    device = line_device(10)
    circuit = QuantumCircuit(num_qubits=2)
    circuit.cx(0, 1)
    circuit.cx(1, 0)
    return circuit, {0: 0, 1: device.num_qubits - 1}, device


class TestRegistry:
    def test_registered_name(self):
        assert "lookahead-teleport" in available_routers()
        router = make_router("lookahead-teleport", line_device(4))
        assert isinstance(router, TeleportSwapRouter)

    def test_options_forward(self):
        router = make_router(
            "lookahead-teleport", line_device(4), hop_weight=0.25, max_hops=3
        )
        assert router.hop_weight == 0.25
        assert router.max_hops == 3


class TestRelocations:
    def test_long_free_chain_teleports_instead_of_swapping(self):
        # refine_layout=False pins the pathological far-apart placement the
        # relocation machinery exists for; by default layout selection would
        # simply move the pair adjacent.
        circuit, layout, device = far_apart_cx()
        routed = make_router(
            "lookahead-teleport", device, refine_layout=False
        ).route(circuit, layout)
        assert routed.swap_count == 0
        assert routed.link_operations > 0
        assert any(instr.is_measurement for instr in routed.circuit.gates)

    def test_swap_router_baseline_differs(self):
        circuit, layout, device = far_apart_cx()
        swapped = make_router("lookahead", device, refine_layout=False).route(
            circuit, layout
        )
        assert swapped.swap_count > 0
        assert swapped.link_operations == 0

    def test_layout_refinement_dissolves_the_pathological_seed(self):
        """With refinement on (the default) the far-apart seed layout is
        repaired during layout selection, so no relocation is ever needed."""
        circuit, layout, device = far_apart_cx()
        routed = make_router("lookahead-teleport", device).route(circuit, layout)
        assert routed.swap_count == 0
        assert routed.link_operations == 0

    def test_statevector_exact_for_every_outcome(self):
        circuit, layout, device = far_apart_cx()
        routed = make_router(
            "lookahead-teleport", device, refine_layout=False
        ).route(circuit, layout)
        state = PathState.register_superposition(2, [0, 1])
        logical_output = get_engine("feynman-tape").run(circuit, state)
        expected = routed.map_state(logical_output, final=True)
        physical_input = routed.map_state(state, final=False)
        keep = routed.physical_qubits([0, 1], final=True)
        for seed in range(5):
            dense = StatevectorSimulator().run_to_path_state(
                routed.circuit, physical_input, rng=np.random.default_rng(seed)
            )
            fidelities = shot_fidelities(
                expected,
                dense.bits,
                dense.amplitudes,
                shots=1,
                n_paths=dense.num_paths,
                keep_qubits=keep,
            )
            assert fidelities[0] == pytest.approx(1.0)

    def test_short_distances_fall_back_to_swaps(self):
        """At adjacent-cluster distances pure SWAP routing wins the score."""
        device = line_device(4)
        circuit = QuantumCircuit(num_qubits=3)
        circuit.cx(0, 2)
        routed = make_router("lookahead-teleport", device).route(circuit)
        assert routed.link_operations == 0

    def test_relocation_frees_the_origin_vertex(self):
        circuit, layout, device = far_apart_cx()
        routed = make_router(
            "lookahead-teleport", device, refine_layout=False
        ).route(circuit, layout)
        final = routed.physical_qubits([0, 1], final=True)
        assert len(set(final)) == 2
        # The teleported qubit no longer sits at its pinned end.
        assert final != [0, device.num_qubits - 1]


class TestDeterminism:
    def test_route_is_reproducible(self):
        circuit, layout, device = far_apart_cx()
        router = make_router("lookahead-teleport", device, refine_layout=False)
        first = router.route(circuit, layout)
        second = router.route(circuit, layout)
        assert first.circuit.instructions == second.circuit.instructions
        assert first.final_layout == second.final_layout

    def test_layout_selection_pass_handles_relocations(self):
        """Routing without an initial layout runs fwd/back/fwd passes that
        apply relocations to the layout without emitting instructions."""
        circuit, _, device = far_apart_cx()
        routed = make_router("lookahead-teleport", device).route(circuit)
        state = PathState.register_superposition(2, [0, 1])
        logical_output = get_engine("feynman-tape").run(circuit, state)
        expected = routed.map_state(logical_output, final=True)
        dense = StatevectorSimulator().run_to_path_state(
            routed.circuit,
            routed.map_state(state, final=False),
            rng=np.random.default_rng(0),
        )
        fidelities = shot_fidelities(
            expected,
            dense.bits,
            dense.amplitudes,
            shots=1,
            n_paths=dense.num_paths,
            keep_qubits=routed.physical_qubits([0, 1], final=True),
        )
        assert fidelities[0] == pytest.approx(1.0)
