"""The tape engine's seeded noisy shots against the independent dense oracle.

:mod:`tests.oracle` rebuilds each shot's errors from the noise model itself
and simulates the noisy circuit densely, so these tests are the second
implementation behind every trajectory the tape engine produces.  They cover
every path-simulable opcode in fused multi-gate groups, ``Z`` and
non-colliding ``X`` measurements, ``CPAULI`` frames, ``H`` branching with
scheduled collapse, idle-noise end-of-circuit sites, crosstalk models whose
off-operand sites force the compiler to re-fuse, and scenario circuits small
enough for dense simulation (the width-1 dual-rail encodings among them).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.ir import compile_circuit
from repro.qram import ClassicalMemory, make_architecture
from repro.scenarios import compile_scenario, get_scenario
from repro.sim import (
    DepolarizingNoise,
    GateNoiseModel,
    NoiseModel,
    NoiselessModel,
    PathState,
    PauliChannel,
    ShotSeeds,
    with_idle_noise,
)
from tests.conftest import gate_noise_models
from tests.oracle import assert_tape_matches_oracle

#: Gate name -> arity for every path-simulable gate except ``H`` (branching
#: has its own strategy below); ``MCX`` draws its arity.
GATE_ARITIES = {
    "I": 1,
    "X": 1,
    "Y": 1,
    "Z": 1,
    "S": 1,
    "SDG": 1,
    "T": 1,
    "TDG": 1,
    "CX": 2,
    "CZ": 2,
    "SWAP": 2,
    "CCX": 3,
    "CSWAP": 3,
    "MCX": None,
}


@st.composite
def layered_circuits(draw, min_qubits: int = 3, max_qubits: int = 7):
    """Layers of one gate on disjoint operands, so the tape fuses them.

    Each layer picks a gate and applies it to one to three disjoint operand
    tuples cut from a random qubit order; consecutive layers of the same
    gate fuse too whenever their operands stay disjoint.
    """
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(1, 8))):
        gate = draw(st.sampled_from(sorted(GATE_ARITIES)))
        arity = GATE_ARITIES[gate] or draw(st.integers(3, 4))
        if arity > num_qubits:
            continue
        order = draw(st.permutations(range(num_qubits)))
        copies = draw(st.integers(1, max(1, num_qubits // arity)))
        for copy in range(min(copies, num_qubits // arity)):
            circuit.add(gate, *order[copy * arity : (copy + 1) * arity])
    return circuit


def one_bit_teleport(circuit: QuantumCircuit, source: int, target: int) -> int:
    """Move ``source`` onto the fresh ``target``; ``source`` is reset to ``|0>``."""
    circuit.cx(source, target)
    cbit = circuit.measure(source, basis="X")
    circuit.cpauli("Z", target, [cbit])
    circuit.cpauli("X", source, [cbit])
    return cbit


@st.composite
def measured_ladders(draw):
    """Noisy teleport ladders with ``H`` branches collapsed by ``Z`` measurement.

    The payload starts on qubit 0 and hops onto fresh qubits (every ``X``
    measurement reads a qubit its fresh partner copies, so paths never
    collide).  A branch opens ``H`` on a fresh qubit, touches it only with
    gates that keep its two branches apart (phases, ``CZ``, ``CX`` onto the
    payload), may stay open across hops and a second nested branch, and
    closes with a ``Z`` measurement that the collapse plan contracts, a frame
    on the payload conditioned on recorded bits and a reset.
    """
    num_qubits = draw(st.integers(3, 6))
    circuit = QuantumCircuit(num_qubits)
    payload = 0
    fresh = list(range(1, num_qubits))
    branches: list[int] = []
    cbits: list[int] = []
    for _ in range(draw(st.integers(2, 7))):
        step = draw(st.sampled_from(("hop", "branch", "close", "gate")))
        if step == "hop" and fresh:
            target = fresh.pop(draw(st.integers(0, len(fresh) - 1)))
            cbits.append(one_bit_teleport(circuit, payload, target))
            fresh.append(payload)
            payload = target
        elif step == "branch" and fresh and len(branches) < 2:
            qubit = fresh.pop(draw(st.integers(0, len(fresh) - 1)))
            circuit.h(qubit)
            branches.append(qubit)
        elif step == "close" and branches:
            qubit = branches.pop(draw(st.integers(0, len(branches) - 1)))
            cbit = circuit.measure(qubit, basis="Z")
            cbits.append(cbit)
            pauli = draw(st.sampled_from("XYZ"))
            condition = draw(
                st.lists(st.sampled_from(cbits), min_size=1, max_size=2, unique=True)
            )
            circuit.cpauli(pauli, payload, condition)
            circuit.cpauli("X", qubit, [cbit])
            fresh.append(qubit)
        elif step == "gate":
            gate = draw(st.sampled_from(("S", "T", "Z", "Y", "CZ", "CX")))
            if gate not in ("CZ", "CX"):
                circuit.add(gate, draw(st.sampled_from([payload, *branches])))
            elif branches:
                circuit.add(gate, draw(st.sampled_from(branches)), payload)
    for qubit in reversed(branches):
        circuit.measure(qubit, basis="Z")
    return circuit


class _Crosstalk(NoiseModel):
    """Gate noise plus fixed extra sites per gate, on any qubit (test model)."""

    def __init__(self, base: NoiseModel, extra: dict[int, list[tuple[int, PauliChannel]]]):
        self.base = base
        self.extra = extra

    def gate_error_channels_indexed(self, gate_index, instr):
        return [
            *self.base.gate_error_channels_indexed(gate_index, instr),
            *self.extra.get(gate_index, ()),
        ]


@st.composite
def crosstalk_instances(draw):
    """A fused circuit plus a crosstalk model that errs on off-operand qubits."""
    circuit = draw(layered_circuits(min_qubits=4))
    n_gates = len(circuit.gates)
    channel = draw(
        st.sampled_from(
            (PauliChannel(p_x=0.5), PauliChannel(p_z=0.5), PauliChannel.depolarizing(0.6))
        )
    )
    extra: dict[int, list[tuple[int, PauliChannel]]] = {}
    for _ in range(draw(st.integers(1, 6)) if n_gates else 0):
        gate_index = draw(st.integers(0, n_gates - 1))
        qubit = draw(st.integers(0, circuit.num_qubits - 1))
        extra.setdefault(gate_index, []).append((qubit, channel))
    base = draw(st.sampled_from((NoiselessModel(), DepolarizingNoise(0.1))))
    return circuit, _Crosstalk(base, extra)


def _superposition(circuit: QuantumCircuit, width: int = 2) -> PathState:
    return PathState.register_superposition(
        circuit.num_qubits, list(range(min(width, circuit.num_qubits)))
    )


class TestQRAMQueries:
    @pytest.mark.parametrize("architecture", ["virtual", "sqc_bb", "fanout"])
    @pytest.mark.parametrize(
        "noise",
        [DepolarizingNoise(0.05), GateNoiseModel(PauliChannel.phase_flip(0.05))],
        ids=["depolarizing", "phase-flip"],
    )
    def test_width_two_query_shots_match(self, architecture, noise):
        """A window that starts mid-point: shot ``s`` is absolute shot ``5 + s``."""
        memory = ClassicalMemory.from_values([1, 0, 1, 1, 0, 0, 1, 0])
        qram = make_architecture(architecture, memory, qram_width=2)
        assert_tape_matches_oracle(
            qram.build_circuit(),
            qram.input_state(),
            noise,
            6,
            ShotSeeds(3, point_index=2, start=5),
        )


class TestEveryOpcode:
    @settings(max_examples=60, deadline=None)
    @given(
        circuit=layered_circuits(),
        noise=gate_noise_models(),
        seed=st.integers(0, 2**32),
        shots=st.integers(1, 5),
    )
    def test_fused_groups_match(self, circuit, noise, seed, shots):
        assert_tape_matches_oracle(
            circuit, _superposition(circuit, 3), noise, shots, ShotSeeds(seed)
        )

    def test_layers_really_fuse(self):
        circuit = QuantumCircuit(6)
        for gate in ("SWAP", "CX", "CZ", "T", "Y"):
            arity = GATE_ARITIES[gate]
            for first in range(0, 6 - arity + 1, arity):
                circuit.add(gate, *range(first, first + arity))
        circuit.cswap(0, 1, 2)
        circuit.cswap(3, 4, 5)
        circuit.mcx([0, 1, 2], 3)
        tape = compile_circuit(circuit)
        assert max(group.size for group in tape.groups) == 6
        assert all(group.size > 1 for group in tape.groups[:-1])
        assert_tape_matches_oracle(
            circuit, _superposition(circuit, 4), DepolarizingNoise(0.3), 8, ShotSeeds(1)
        )


class TestMeasuredBranching:
    @settings(max_examples=60, deadline=None)
    @given(
        circuit=measured_ladders(),
        noise=gate_noise_models(),
        seed=st.integers(0, 2**32),
        shots=st.integers(1, 5),
    )
    def test_teleport_ladders_with_branches_match(self, circuit, noise, seed, shots):
        state = PathState.register_superposition(
            circuit.num_qubits, [0], {0: 0.6, 1: 0.8j}
        )
        assert_tape_matches_oracle(circuit, state, noise, shots, ShotSeeds(seed))

    def test_frame_after_the_path_count_changes(self):
        # A frame reads a bit recorded at one path count after a branch has
        # doubled it, and again after the collapse has halved it.
        circuit = QuantumCircuit(4)
        m = one_bit_teleport(circuit, 0, 1)
        circuit.h(2)
        circuit.cx(2, 1)
        circuit.cpauli("X", 1, [m])
        circuit.cpauli("Y", 1, [m])
        circuit.measure(2, basis="Z")
        circuit.cpauli("Z", 1, [m])
        circuit.cpauli("X", 3, [m])
        state = PathState.register_superposition(4, [0], {0: 0.6, 1: 0.8})
        tape = compile_circuit(circuit)
        assert tape.max_branch_level == 1 and any(tape.collapse_strides)
        for noise in (NoiselessModel(), DepolarizingNoise(0.2)):
            assert_tape_matches_oracle(circuit, state, noise, 16, ShotSeeds(4))


class TestIdleNoise:
    @settings(max_examples=30, deadline=None)
    @given(
        circuit=layered_circuits(),
        seed=st.integers(0, 2**32),
        p=st.sampled_from((0.05, 0.2, 0.5)),
    )
    def test_end_of_circuit_sites_match(self, circuit, seed, p):
        noise = with_idle_noise(
            DepolarizingNoise(0.05), circuit, PauliChannel.phase_flip(p)
        )
        assert_tape_matches_oracle(
            circuit, _superposition(circuit), noise, 4, ShotSeeds(seed)
        )

    def test_final_sites_really_fire(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        noise = with_idle_noise(NoiselessModel(), circuit, PauliChannel(p_x=1.0))
        assert noise.final_error_channels()
        assert_tape_matches_oracle(circuit, _superposition(circuit), noise, 3, ShotSeeds(2))


class TestCrosstalk:
    @settings(max_examples=60, deadline=None)
    @given(instance=crosstalk_instances(), seed=st.integers(0, 2**32))
    def test_random_crosstalk_models_match(self, instance, seed):
        circuit, noise = instance
        assert_tape_matches_oracle(
            circuit, _superposition(circuit, 3), noise, 4, ShotSeeds(seed)
        )

    def test_a_mid_run_site_re_fuses_the_tape(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.cx(4, 5)
        noise = _Crosstalk(NoiselessModel(), {0: [(2, PauliChannel(p_x=1.0))]})
        tape = compile_circuit(circuit)
        assert tape.num_groups == 1
        refused = tape.noise_sites(noise).tape
        # The site on qubit 2 closes CX(0, 1)'s run to CX(2, 3), which opens
        # the next run; CX(4, 5) joins that one.
        assert [group.operands for group in refused.groups] == [
            ((0, 1),),
            ((2, 3), (4, 5)),
        ]
        assert_tape_matches_oracle(circuit, _superposition(circuit), noise, 2, ShotSeeds(0))


class TestScenarioCircuits:
    @pytest.mark.parametrize(
        ("name", "width"),
        [
            ("dual-rail-bb-m2", 1),
            ("htree-dual-rail-m3", 1),
            ("htree-dual-rail-idle", 1),
            ("bare-bb-m2", 2),
            ("ideal-m3-idle", 2),
            ("htree-swap-m3", 2),
            ("htree-teleport-fused-idle", 2),
            ("htree-teleport-executed-idle", 2),
            ("perth-m1", 1),
            ("perth-m1-idle", 1),
            ("guadalupe-m2-lookahead", 1),
        ],
    )
    def test_dense_sized_scenarios_match(self, name, width):
        spec = dataclasses.replace(get_scenario(name), qram_width=width)
        compiled = compile_scenario(spec, 7)
        assert_tape_matches_oracle(
            compiled.circuit,
            compiled.input_state,
            compiled.noise_model(0.5),
            4,
            ShotSeeds(11, point_index=1),
        )
