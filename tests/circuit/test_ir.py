"""Tests for the compiled gate-tape IR (:mod:`repro.circuit.ir`)."""

import gc
import pickle
import weakref

import numpy as np

from repro.circuit import QuantumCircuit, compile_circuit
from repro.circuit.ir import (
    GATE_OPCODES,
    OP_CSWAP,
    OP_CX,
    OP_NOP,
    OP_SWAP,
    OPCODE_NAMES,
)
from repro.sim import (
    GateNoiseModel,
    NoiseModel,
    NoiselessModel,
    PauliChannel,
    ScheduledNoiseModel,
)


def _example_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(6)
    circuit.swap(0, 1)
    circuit.swap(2, 3)  # fuses with the first swap
    circuit.swap(1, 2)  # overlaps: new group
    circuit.barrier()
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.cx(4, 5)
    circuit.i(0)
    circuit.cswap(0, 1, 2)
    return circuit


class TestCompile:
    def test_opcode_table_covers_registry(self):
        from repro.circuit.gates import ALL_GATES

        assert set(GATE_OPCODES) == set(ALL_GATES) - {"BARRIER"}
        assert all(OPCODE_NAMES[op] == name for name, op in GATE_OPCODES.items())

    def test_groups_and_fusion(self):
        tape = compile_circuit(_example_circuit())
        assert [group.opcode for group in tape.groups] == [
            OP_SWAP,
            OP_SWAP,
            OP_CX,
            OP_NOP,
            OP_CSWAP,
        ]
        assert [group.size for group in tape.groups] == [2, 1, 3, 1, 1]

    def test_barriers_dropped_but_gates_kept(self):
        circuit = _example_circuit()
        tape = compile_circuit(circuit)
        assert tape.num_gates == circuit.num_gates
        assert all(not instr.is_barrier for instr in tape.gates)
        assert tape.num_qubits == circuit.num_qubits

    def test_gate_group_is_monotonic_and_consistent(self):
        tape = compile_circuit(_example_circuit())
        assert np.all(np.diff(tape.gate_group) >= 0)
        # Each gate's operands appear in the group it is assigned to.
        for gate, group_index in zip(tape.gates, tape.gate_group):
            group = tape.groups[int(group_index)]
            assert GATE_OPCODES[gate.gate] == group.opcode
            assert any(
                tuple(row) == gate.qubits for row in group.qubits.tolist()
            )

    def test_groups_are_pairwise_disjoint(self):
        tape = compile_circuit(_example_circuit())
        for group in tape.groups:
            flat = group.qubits.ravel().tolist()
            assert len(flat) == len(set(flat))

    def test_unsupported_path_gates_recorded(self, monkeypatch):
        # Every registered gate is path-simulable since H joined the set, so
        # exercise the rejection safety net with a synthetic registry entry.
        from repro.circuit import gates as gates_mod
        from repro.circuit import ir as ir_mod

        monkeypatch.setitem(
            gates_mod.ALL_GATES,
            "RX",
            gates_mod._spec(
                "RX", 1, classical_reversible=False, clifford=False, diagonal=False
            ),
        )
        monkeypatch.setitem(ir_mod.GATE_OPCODES, "RX", ir_mod.GATE_OPCODES["X"])
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.add("RX", 1)
        tape = compile_circuit(circuit)
        assert tape.unsupported_path_gates == ("RX",)

    def test_hadamard_is_path_simulable_and_tagged(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.h(1)
        tape = compile_circuit(circuit)
        assert tape.unsupported_path_gates == ()
        assert tape.max_branch_level == 1


class TestCache:
    def test_tape_cached_on_circuit(self):
        circuit = _example_circuit()
        assert compile_circuit(circuit) is compile_circuit(circuit)

    def test_append_invalidates_cache(self):
        circuit = _example_circuit()
        first = compile_circuit(circuit)
        circuit.x(5)
        second = compile_circuit(circuit)
        assert second is not first
        assert second.num_gates == first.num_gates + 1

    def test_direct_mutation_detected_by_length(self):
        circuit = _example_circuit()
        first = compile_circuit(circuit)
        circuit.instructions.append(circuit.instructions[0])
        assert compile_circuit(circuit) is not first

    def test_copies_do_not_share_tapes(self):
        circuit = _example_circuit()
        compile_circuit(circuit)
        clone = circuit.copy()
        assert clone._tape is None


class TestNoiseSites:
    def test_site_order_follows_gates_then_channels(self):
        circuit = _example_circuit()
        tape = compile_circuit(circuit)
        noise = GateNoiseModel(PauliChannel.phase_flip(1e-2))
        sites = tape.noise_sites(noise)
        expected = [
            (index, qubit)
            for index, instr in enumerate(tape.gates)
            for qubit, channel in noise.gate_error_channels(instr)
        ]
        assert list(zip(sites.gate_index.tolist(), sites.qubit.tolist())) == expected
        assert np.array_equal(sites.group_index, tape.gate_group[sites.gate_index])

    def test_noiseless_model_has_no_sites(self):
        tape = compile_circuit(_example_circuit())
        assert tape.noise_sites(NoiselessModel()).n_sites == 0

    def test_site_table_memoized_per_model(self):
        tape = compile_circuit(_example_circuit())
        noise = GateNoiseModel(PauliChannel.bit_flip(1e-3))
        assert tape.noise_sites(noise) is tape.noise_sites(noise)

    def test_fresh_equal_models_share_one_entry_and_stay_collectable(self):
        """Every shot shard of a sweep point builds a fresh but equal model:
        all of them find one value-keyed table, and the memo keeps none of
        the discarded models alive."""
        tape = compile_circuit(_example_circuit())
        first = GateNoiseModel(PauliChannel.bit_flip(1e-3))
        table = tape.noise_sites(first)
        discarded = []
        for _ in range(20):
            noise = GateNoiseModel(PauliChannel.bit_flip(1e-3))
            assert tape.noise_sites(noise) is table
            discarded.append(weakref.ref(noise))
        del noise
        gc.collect()
        assert len(tape._site_cache) == 1
        assert [ref() for ref in discarded] == [None] * 20

    def test_scheduled_model_hash_skips_its_site_tables(self):
        """Hashing a scheduled model costs nothing per site: only its base
        is hashed, so a channel that refuses to hash is never asked."""

        class RefusesHash(PauliChannel):
            def __hash__(self):
                raise AssertionError("a site channel was hashed")

        channel = RefusesHash(p_x=0.5)
        base = GateNoiseModel(PauliChannel.bit_flip(1e-3))

        def model() -> ScheduledNoiseModel:
            return ScheduledNoiseModel(
                base=base, gate_sites=(((2, channel),),), final_sites=((1, channel),)
            )

        assert hash(model()) == hash(ScheduledNoiseModel(base=base, gate_sites=()))
        circuit = QuantumCircuit(3)
        circuit.x(0)
        tape = compile_circuit(circuit)
        table = tape.noise_sites(model())
        assert tape.noise_sites(model()) is table
        assert table.qubit.tolist() == [0, 2, 1]


class _ExtraSites(NoiseModel):
    """Fixed ``(qubit, channel)`` sites after chosen gate indices."""

    def __init__(self, sites: dict[int, list[int]]):
        self.sites = sites

    def gate_error_channels_indexed(self, gate_index, instr):
        return [(qubit, PauliChannel(p_x=0.5)) for qubit in self.sites.get(gate_index, ())]


class TestOffOperandRefuse:
    def _x_layer(self) -> QuantumCircuit:
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.x(qubit)
        return circuit

    def test_conflict_free_model_keeps_the_circuit_tape(self):
        circuit = self._x_layer()
        tape = compile_circuit(circuit)
        # Qubit 0 is touched earlier in the run, never later: no conflict.
        table = tape.noise_sites(_ExtraSites({2: [0]}))
        assert table.tape is None
        assert np.array_equal(table.group_index, [0])

    def test_every_run_is_closed_to_its_site_qubits(self):
        # X(0) errs on 2 and X(1) on 3.  Closing the run right after X(0)
        # would leave X(1)'s conflict with X(3) in the next run; blocking
        # the site qubits keeps X(2), X(3) out while X(1) still fuses.
        circuit = self._x_layer()
        tape = compile_circuit(circuit)
        table = tape.noise_sites(_ExtraSites({0: [2], 1: [3]}))
        refused = table.tape
        assert [group.operands for group in refused.groups] == [
            ((0,), (1,)),
            ((2,), (3,)),
        ]
        assert table.group_index.tolist() == [0, 0]
        assert refused.gate_group.tolist() == [0, 0, 1, 1]
        assert refused.gates == tape.gates
        assert refused.branch_levels == (0, 0)

    def test_refused_tape_is_memoised_and_leaves_the_circuit_tape(self):
        circuit = self._x_layer()
        tape = compile_circuit(circuit)
        noise = _ExtraSites({0: [3]})
        table = tape.noise_sites(noise)
        assert table.tape is not None and table.tape is not tape
        assert tape.noise_sites(noise) is table
        assert compile_circuit(circuit) is tape
        assert tape.num_groups == 1

    def test_end_of_circuit_sites_follow_the_refused_groups(self):
        class WithFinal(_ExtraSites):
            def final_error_channels(self):
                return [(1, PauliChannel(p_z=0.5))]

        table = compile_circuit(self._x_layer()).noise_sites(WithFinal({0: [1]}))
        assert table.tape.num_groups == 2
        assert table.group_index.tolist() == [0, 2]
        assert table.gate_index.tolist() == [0, -1]

    def test_split_branch_run_recomputes_branch_levels(self):
        circuit = QuantumCircuit(3)
        for qubit in range(3):
            circuit.h(qubit)
        tape = compile_circuit(circuit)
        assert tape.branch_levels == (3,)
        refused = tape.noise_sites(_ExtraSites({0: [1]})).tape
        assert [group.operands for group in refused.groups] == [((0,),), ((1,), (2,))]
        assert refused.branch_levels == (1, 3)
        assert refused.max_branch_level == 3

    def test_hashable_crosstalk_model_is_found_by_value_and_pickles(self):
        def model() -> ScheduledNoiseModel:
            channel = PauliChannel(p_x=0.5)
            return ScheduledNoiseModel(
                base=GateNoiseModel(PauliChannel()),
                gate_sites=(((2, channel),), (), (), ()),
            )

        tape = compile_circuit(self._x_layer())
        table = tape.noise_sites(model())
        assert table.tape is not None
        assert tape.noise_sites(model()) is table
        clone = pickle.loads(pickle.dumps(tape))
        cloned = clone.noise_sites(model())
        assert [g.operands for g in cloned.tape.groups] == [
            g.operands for g in table.tape.groups
        ]
