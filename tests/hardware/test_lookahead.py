"""Tests for the SABRE-style lookahead router and the router registry."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import (
    GreedySwapRouter,
    LookaheadSwapRouter,
    available_routers,
    get_default_router,
    get_router_class,
    ibm_perth_like,
    make_router,
)
from repro.hardware.devices import DeviceModel, grid_device
from repro.hardware.router import DEFAULT_ROUTER
from repro.scenarios import BUILTIN_SCENARIOS, compile_scenario, get_scenario
from repro.sim import FeynmanPathSimulator, PathState


def _assert_equivalent(circuit, routed) -> None:
    """The routed circuit implements the same map up to the final layout."""
    simulator = FeynmanPathSimulator()
    rng = np.random.default_rng(1)
    bits = np.unique(
        rng.integers(0, 2, size=(4, circuit.num_qubits)).astype(bool), axis=0
    )
    amplitudes = np.ones(bits.shape[0], dtype=complex) / np.sqrt(bits.shape[0])
    state = PathState(bits=bits, amplitudes=amplitudes)
    logical_output = simulator.run(circuit, state)
    physical_output = simulator.run(
        routed.circuit, routed.map_state(state, final=False)
    )
    expected = routed.map_state(logical_output, final=True)
    assert abs(expected.overlap(physical_output)) ** 2 == pytest.approx(1.0)


class TestRouterRegistry:
    def test_both_routers_registered(self):
        assert {"greedy-swap", "lookahead"} <= set(available_routers())

    def test_default_is_greedy(self):
        assert get_default_router() == DEFAULT_ROUTER == "greedy-swap"
        assert get_router_class(DEFAULT_ROUTER) is GreedySwapRouter

    def test_get_router_class_resolves_names(self):
        assert get_router_class("lookahead") is LookaheadSwapRouter

    def test_unknown_router_rejected(self):
        with pytest.raises(KeyError, match="available"):
            get_router_class("oracle")
        # The registry takes names only: neither a class nor None resolves.
        for key in (LookaheadSwapRouter, None):
            with pytest.raises(KeyError, match="available"):
                get_router_class(key)

    def test_make_router_binds_device_and_options(self):
        device = ibm_perth_like()
        router = make_router("lookahead", device, lookahead_window=5)
        assert isinstance(router, LookaheadSwapRouter)
        assert router.device is device
        assert router.lookahead_window == 5


class TestLookaheadRouting:
    def test_adjacent_gate_needs_no_swaps(self):
        device = grid_device(1, 2)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = LookaheadSwapRouter(device).route(circuit)
        assert routed.swap_count == 0

    def test_layout_selection_avoids_remote_placement(self):
        """Fwd/back/fwd layout search places a remote pair adjacently."""
        device = ibm_perth_like()
        circuit = QuantumCircuit(7)
        circuit.cx(0, 6)  # opposite ends of the H shape under identity layout
        greedy = GreedySwapRouter(device).route(circuit)
        routed = LookaheadSwapRouter(device).route(circuit)
        assert greedy.swap_count >= 3
        assert routed.swap_count == 0
        assert device.are_connected(*routed.circuit.gates[0].qubits)
        _assert_equivalent(circuit, routed)

    def test_explicit_initial_layout_is_respected(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = LookaheadSwapRouter(device).route(
            circuit, initial_layout={0: 4, 1: 5}
        )
        assert routed.initial_layout == {0: 4, 1: 5}
        assert routed.swap_count == 0
        assert routed.circuit.gates[0].qubits == (4, 5)

    def test_remote_seed_layout_is_refined_away(self):
        """A bad explicit layout is a seed, not a contract: the fwd/back
        selection passes move the remote pair adjacent, where the greedy
        router (no layout selection) would have paid a SWAP chain."""
        device = ibm_perth_like()
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = LookaheadSwapRouter(device).route(
            circuit, initial_layout={0: 0, 1: 6}
        )
        greedy = GreedySwapRouter(device).route(circuit, initial_layout={0: 0, 1: 6})
        assert greedy.swap_count >= 1
        assert routed.swap_count == 0
        assert device.are_connected(*routed.circuit.gates[0].qubits)
        _assert_equivalent(circuit, routed)

    def test_multi_qubit_gates_route_to_connected_patches(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(5)
        circuit.ccx(0, 2, 4)
        circuit.cswap(4, 0, 2)
        circuit.mcx([0, 1, 2], 4)
        routed = LookaheadSwapRouter(device).route(circuit)
        graph = device.to_networkx()
        import networkx as nx

        for instr in routed.circuit.gates:
            if len(instr.qubits) > 1:
                assert nx.is_connected(graph.subgraph(instr.qubits))
        _assert_equivalent(circuit, routed)

    def test_greedy_fallback_path_is_correct(self):
        """max_stalled_swaps=0 forces the shortest-path fallback everywhere."""
        device = ibm_perth_like()
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        circuit.ccx(1, 2, 3)
        circuit.cx(0, 2)
        routed = LookaheadSwapRouter(device, max_stalled_swaps=0).route(circuit)
        _assert_equivalent(circuit, routed)

    def test_barriers_are_mapped_and_preserved(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        circuit.barrier(0, 1, 2)
        circuit.x(1)
        routed = LookaheadSwapRouter(device).route(circuit)
        barriers = [instr for instr in routed.circuit.instructions if instr.is_barrier]
        assert len(barriers) == 1
        assert len(barriers[0].qubits) == 3

    def test_circuit_too_large_rejected(self):
        with pytest.raises(ValueError, match="only"):
            LookaheadSwapRouter(ibm_perth_like()).route(QuantumCircuit(8))

    def test_invalid_layouts_rejected(self):
        router = LookaheadSwapRouter(ibm_perth_like())
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0})
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0, 1: 0})
        with pytest.raises(ValueError):
            router.route(circuit, initial_layout={0: 0, 1: 9})

    def test_disconnected_device_rejected(self):
        device = DeviceModel(name="split", num_qubits=4, coupling_map=((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="connected"):
            LookaheadSwapRouter(device)

    def test_routing_is_deterministic(self):
        device = ibm_perth_like()
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        circuit.ccx(1, 3, 4)
        circuit.cx(2, 0)
        first = LookaheadSwapRouter(device).route(circuit)
        second = LookaheadSwapRouter(device).route(circuit)
        assert first.circuit.instructions == second.circuit.instructions
        assert first.initial_layout == second.initial_layout
        assert first.final_layout == second.final_layout


#: The seven scenarios that predate the router registry -- the lookahead
#: router must never route any of them with more SWAPs than greedy.
PRE_REGISTRY_SCENARIOS = (
    "ideal-m3",
    "htree-swap-m3",
    "htree-teleport-m3",
    "perth-m1",
    "guadalupe-m2",
    "ideal-m3-idle",
    "perth-m1-idle",
)
SEED = 11


class TestSwapCountNonRegression:
    @pytest.mark.parametrize(
        "name",
        [
            name
            for name in PRE_REGISTRY_SCENARIOS
            if not (
                get_scenario(name).mapping == "htree"
                and get_scenario(name).qram_width >= 3
            )
        ],
    )
    def test_lookahead_never_beaten_by_greedy(self, name):
        spec = get_scenario(name)
        greedy = compile_scenario(
            spec.variant(f"{name}-cmp-greedy", "swap-count probe", router="greedy-swap"),
            SEED,
        )
        lookahead = compile_scenario(
            spec.variant(f"{name}-cmp-lookahead", "swap-count probe", router="lookahead"),
            SEED,
        )
        assert lookahead.extra_swaps <= greedy.extra_swaps
        if spec.mapping == "none" or spec.routing == "teleport":
            assert lookahead.extra_swaps == greedy.extra_swaps == 0

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name",
        [
            name
            for name in PRE_REGISTRY_SCENARIOS
            if get_scenario(name).mapping == "htree"
            and get_scenario(name).qram_width >= 3
        ],
    )
    def test_lookahead_never_beaten_by_greedy_htree(self, name):
        spec = get_scenario(name)
        greedy = compile_scenario(
            spec.variant(f"{name}-cmp-greedy", "swap-count probe", router="greedy-swap"),
            SEED,
        )
        lookahead = compile_scenario(
            spec.variant(f"{name}-cmp-lookahead", "swap-count probe", router="lookahead"),
            SEED,
        )
        if spec.routing == "teleport":
            assert lookahead.extra_swaps == greedy.extra_swaps == 0
        else:
            assert lookahead.extra_swaps <= greedy.extra_swaps

    @pytest.mark.slow
    def test_htree_cluster_layout_selection_beats_residual_swaps(self):
        """Layout selection now refines the H-tree cluster seed layout.

        Before the fix the fwd/back passes were skipped whenever an initial
        layout was given, leaving ``htree-swap-m3`` with 17 residual SWAPs
        under the lookahead router; running the passes from the cluster seed
        must strictly beat that ceiling (and never regress back to it).
        """
        spec = get_scenario("htree-swap-m3")
        compiled = compile_scenario(
            spec.variant(
                "htree-swap-m3-layout-probe", "swap-count probe", router="lookahead"
            ),
            SEED,
        )
        assert compiled.extra_swaps < 17

    def test_strict_reduction_on_a_sparse_backend(self):
        """At least one Figure-12 device scenario must strictly improve."""
        spec = get_scenario("guadalupe-m2")
        greedy = compile_scenario(
            spec.variant("guadalupe-cmp-greedy", "probe", router="greedy-swap"), SEED
        )
        lookahead = compile_scenario(
            spec.variant("guadalupe-cmp-lookahead", "probe", router="lookahead"), SEED
        )
        assert lookahead.extra_swaps < greedy.extra_swaps

    def test_builtin_lookahead_variants_mirror_their_greedy_bases(self):
        """The registered *-lookahead scenarios differ from their base only in router."""
        for base_name, lookahead_name in (
            ("perth-m1", "perth-m1-lookahead"),
            ("guadalupe-m2", "guadalupe-m2-lookahead"),
        ):
            base = get_scenario(base_name)
            variant = get_scenario(lookahead_name)
            assert variant.router == "lookahead"
            assert (base.qram_width, base.sqc_width) == (
                variant.qram_width,
                variant.sqc_width,
            )
            assert base.device == variant.device
            assert base.error_reduction_factors == variant.error_reduction_factors

    def test_all_builtin_scenarios_compile_with_their_router(self):
        for spec in BUILTIN_SCENARIOS:
            if spec.router == "lookahead":
                compiled = compile_scenario(spec, SEED)
                assert compiled.spec.router == "lookahead"
                assert compiled.extra_swaps >= 0
