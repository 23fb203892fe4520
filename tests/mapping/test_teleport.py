"""Executed teleportation expansion: gadget correctness and cost accounting.

The m = 3 scenario circuits are too wide for dense simulation (28 vertices),
so exactness is pinned twice: on the full workload with the Feynman engine
(every outcome stream must reproduce the logical ideal exactly), and on a
synthetic mini-tree circuit small enough for the dense
``StatevectorSimulator`` --
covering each expansion gadget (ladder CX, tagged move, control extension,
bounce) against dense amplitudes.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.registers import QubitRegister
from repro.mapping.htree import HTreeEmbedding
from repro.mapping.teleport import expand_teleport_links
from repro.qram.virtual_qram import VirtualQRAM
from repro.qram.memory import ClassicalMemory
from repro.sim.engine import get_engine
from repro.sim.fidelity import shot_fidelities
from repro.sim.paths import PathState
from repro.sim.statevector import StatevectorSimulator


def mini_tree_circuit() -> QuantumCircuit:
    """A 5-qubit circuit on the depth-3 H-tree's two remote top clusters.

    Registers mimic the router-tree naming so
    :meth:`HTreeEmbedding.logical_positions` places qubits 0-1 on the root
    node and qubits 2-4 on its right child, grid distance 2 apart (the
    depth-3 tree's top arms have length 2).
    """
    circuit = QuantumCircuit(num_qubits=5)
    circuit.registers["router_L0"] = QubitRegister(name="router_L0", qubits=(0,))
    circuit.registers["wire_L0"] = QubitRegister(name="wire_L0", qubits=(1,))
    circuit.registers["wire_L1"] = QubitRegister(name="wire_L1", qubits=(2, 3))
    circuit.registers["router_L1"] = QubitRegister(name="router_L1", qubits=(4,))
    return circuit


def assert_expansion_exact(circuit: QuantumCircuit, input_state: PathState) -> None:
    """Expanded circuit == logical circuit on dense amplitudes, all streams."""
    embedding = HTreeEmbedding(tree_depth=3)
    expansion = expand_teleport_links(circuit, embedding)
    logical_output = get_engine("feynman-tape").run(circuit, input_state)
    expected = expansion.map_state(logical_output)
    physical_input = expansion.map_state(input_state)
    for seed in range(5):
        dense = StatevectorSimulator().run_to_path_state(
            expansion.circuit, physical_input, rng=np.random.default_rng(seed)
        )
        fidelities = shot_fidelities(
            expected,
            dense.bits,
            dense.amplitudes,
            shots=1,
            n_paths=dense.num_paths,
            keep_qubits=list(range(circuit.num_qubits)),
        )
        assert fidelities[0] == pytest.approx(1.0)


class TestGadgetsStatevectorExact:
    def test_ladder_cx_both_orientations(self):
        circuit = mini_tree_circuit()
        circuit.cx(1, 3)  # control at root, target remote
        circuit.cx(2, 0)  # control remote, target at root
        state = PathState.register_superposition(5, [0, 1, 2])
        assert_expansion_exact(circuit, state)

    def test_tagged_move_swap(self):
        circuit = mini_tree_circuit()
        # Payload on the root wire moves into the (empty) child wire.
        circuit.swap(1, 3, tags=("move:1",))
        state = PathState.register_superposition(5, [0, 1])
        assert_expansion_exact(circuit, state)

    def test_control_extension_cswap(self):
        circuit = mini_tree_circuit()
        # Remote control (child router) of a root-local CSWAP.
        circuit.cswap(4, 0, 1)
        state = PathState.register_superposition(5, [0, 1, 4])
        assert_expansion_exact(circuit, state)

    def test_bounce_cswap(self):
        circuit = mini_tree_circuit()
        # Root control + root wire with a remote swap partner: the general
        # state-exchange round trip.
        circuit.cswap(0, 1, 3)
        state = PathState.register_superposition(5, [0, 1, 3])
        assert_expansion_exact(circuit, state)

    def test_bounce_untagged_swap(self):
        circuit = mini_tree_circuit()
        circuit.swap(1, 2)  # no move tag: must survive both sides occupied
        state = PathState.register_superposition(5, [1, 2])
        assert_expansion_exact(circuit, state)

    def test_mixed_workload(self):
        circuit = mini_tree_circuit()
        circuit.cswap(0, 1, 3)
        circuit.cx(3, 1)
        circuit.swap(1, 2)
        circuit.cswap(4, 0, 1)
        state = PathState.register_superposition(5, [0, 1, 3])
        assert_expansion_exact(circuit, state)


class TestCostAccounting:
    def test_local_gates_pass_through(self):
        circuit = mini_tree_circuit()
        circuit.cx(0, 1)  # root-local
        circuit.cx(2, 4)  # left-child-local
        expansion = expand_teleport_links(circuit, HTreeEmbedding(tree_depth=3))
        assert expansion.remote_gates == 0
        assert expansion.link_operations == 0
        assert expansion.measurements == 0
        assert expansion.circuit.num_gates == 2

    def test_exact_match_gadgets_hit_analytic_site_count(self):
        """Ladder/move/extension expansions cost 2(d-1) link sites exactly."""
        embedding = HTreeEmbedding(tree_depth=3)
        for build, expected_links in (
            (lambda c: c.cx(1, 3), 1),  # ladder: d - 1 link CXs
            (lambda c: c.swap(1, 3, tags=("move:1",)), 2),  # move: d hops
            (lambda c: c.cswap(4, 0, 1), 1),  # extension: d - 1 copies
        ):
            circuit = mini_tree_circuit()
            build(circuit)
            expansion = expand_teleport_links(circuit, embedding)
            assert expansion.remote_gates == 1
            assert expansion.link_operations == expected_links
            assert expansion.measurements == expected_links

    def test_bounce_costs_a_round_trip(self):
        circuit = mini_tree_circuit()
        circuit.cswap(0, 1, 3)
        expansion = expand_teleport_links(circuit, HTreeEmbedding(tree_depth=3))
        assert expansion.link_operations == 2  # 2(d-1) hops, d = 2
        assert expansion.measurements == 2

    def test_gate_tags_survive_expansion(self):
        """The substituted/final gate keeps the original instruction's tags."""
        embedding = HTreeEmbedding(tree_depth=3)
        for build in (
            lambda c: c.cx(1, 3, tags=("classical",)),  # ladder
            lambda c: c.cswap(4, 0, 1, tags=("classical",)),  # extension
            lambda c: c.cswap(0, 1, 3, tags=("classical",)),  # bounce
        ):
            circuit = mini_tree_circuit()
            build(circuit)
            expansion = expand_teleport_links(circuit, embedding)
            assert expansion.circuit.count_tagged("classical") == 1

    def test_chain_vertices_reset_for_reuse(self):
        """Two remote gates over the same edge reuse the reset chain."""
        circuit = mini_tree_circuit()
        circuit.cx(1, 3)
        circuit.cx(1, 3)
        state = PathState.register_superposition(5, [0, 1])
        assert_expansion_exact(circuit, state)


class TestFullWorkloadFeynmanExact:
    def test_m3_virtual_qram_zero_noise_exact(self):
        """The whole m=3 teleport workload reproduces its ideal exactly."""
        memory = ClassicalMemory.from_values([1, 0, 1, 1, 0, 0, 1, 0])
        qram = VirtualQRAM(memory=memory, qram_width=3)
        logical = qram.build_circuit()
        expansion = expand_teleport_links(logical, HTreeEmbedding(tree_depth=3))
        assert expansion.remote_gates > 0
        assert expansion.measurements > 0
        input_state = expansion.map_state(qram.input_state())
        expected = expansion.map_state(qram.ideal_output(qram.input_state()))
        keep = list(qram.kept_qubits())
        for seed in (0, 5):
            out = get_engine("feynman-tape").run(
                expansion.circuit, input_state, rng=np.random.default_rng(seed)
            )
            fidelities = shot_fidelities(
                expected,
                out.bits,
                out.amplitudes,
                shots=1,
                n_paths=out.num_paths,
                keep_qubits=keep,
            )
            assert fidelities[0] == pytest.approx(1.0)


class TestErrors:
    def test_map_state_rejects_wrong_width(self):
        circuit = mini_tree_circuit()
        circuit.cx(1, 3)
        expansion = expand_teleport_links(circuit, HTreeEmbedding(tree_depth=3))
        with pytest.raises(ValueError, match="logical qubits"):
            expansion.map_state(PathState.register_superposition(3, [0]))

    def test_evenly_split_gate_rejected(self):
        """A 2-2 operand split stays non-local after one relocation: raise."""
        circuit = mini_tree_circuit()
        # Controls 0 (root) and 2 (child), control 4 (child), target 1 (root):
        # two operands per cluster along one tree edge.
        circuit.mcx([0, 2, 4], 1)
        with pytest.raises(ValueError, match="lone operand"):
            expand_teleport_links(circuit, HTreeEmbedding(tree_depth=3))

    def test_multi_cluster_gate_rejected(self):
        circuit = QuantumCircuit(num_qubits=3)
        circuit.registers["wire_L0"] = QubitRegister(name="wire_L0", qubits=(0,))
        circuit.registers["wire_L1"] = QubitRegister(name="wire_L1", qubits=(1, 2))
        circuit.ccx(1, 2, 0)  # spans both children and the root: 3 clusters
        with pytest.raises(ValueError, match="clusters"):
            expand_teleport_links(circuit, HTreeEmbedding(tree_depth=3))
