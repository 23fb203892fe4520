"""Engine lookup and tape-versus-dense equivalence tests.

The tape engine is the only execution engine, so these tests pin its
contract against independent references:

* noiseless outputs agree exactly with the dense
  :class:`~repro.sim.StatevectorSimulator` for every registered QRAM
  architecture, and the dense output is the architecture's ideal output;
* under a fixed seed every Monte-Carlo shot equals the dense oracle of
  :mod:`tests.oracle` (the shot's Paulis drawn from the noise model and
  inserted after their gates);
* fused execution is equivalent to sequential execution on circuits designed
  to stress the fusion rules (overlapping runs, diagonal runs, identity
  gates carrying noise sites, variable-arity MCX, off-operand noise inside a
  fused run).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuit import QuantumCircuit
from repro.circuit import ir
from repro.qram import ClassicalMemory, make_architecture
from repro.sim import (
    ENGINE_NAME,
    DepolarizingNoise,
    FeynmanPathSimulator,
    GateNoiseModel,
    NoiselessModel,
    PathState,
    PauliChannel,
    StatevectorSimulator,
    get_default_engine,
    get_engine,
)
from repro.experiments.common import gate_noise_shard
from repro.scenarios import get_scenario
from repro.scenarios.run import scenario_shard
from repro.sim import engine as engine_module
from repro.sim.seeding import ShotSeeds, as_shot_seeds
from repro.sweep import SweepRunner
from tests.conftest import random_reversible_circuits
from tests.oracle import assert_tape_matches_oracle

ARCHITECTURE_NAMES = ["virtual", "sqc_bb", "sqc_ss", "fanout", "sqc"]

NOISE_MODELS = [
    GateNoiseModel(PauliChannel.phase_flip(5e-3)),
    GateNoiseModel(PauliChannel.bit_flip(5e-3)),
    DepolarizingNoise(1e-2),
    GateNoiseModel(PauliChannel.depolarizing(1e-2), two_qubit_factor=2.0),
]


@pytest.fixture
def memory() -> ClassicalMemory:
    return ClassicalMemory.from_values([1, 0, 1, 1, 0, 0, 1, 0])


def _amplitudes_match(a: PathState, b: PathState, tol: float = 1e-9) -> bool:
    left, right = a.as_dict(), b.as_dict()
    if set(left) != set(right):
        return False
    return all(abs(left[key] - right[key]) < tol for key in left)


def _dense(circuit: QuantumCircuit, state: PathState, **kwargs) -> PathState:
    """The dense reference output (paths merged per basis state)."""
    return StatevectorSimulator().run_to_path_state(circuit, state, **kwargs)


class TestEngineLookup:
    def test_one_shared_engine(self):
        engine = get_engine()
        assert isinstance(engine, FeynmanPathSimulator)
        assert get_engine(None) is engine
        assert get_engine(ENGINE_NAME) is engine

    def test_default_engine_name_is_the_stamp(self):
        assert get_default_engine() == ENGINE_NAME == "feynman-tape"

    @pytest.mark.parametrize(
        "name", ["statevector", "feynman-interp", "not-an-engine"]
    )
    def test_other_names_rejected(self, name):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine(name)


@pytest.mark.parametrize("architecture_name", ARCHITECTURE_NAMES)
class TestArchitectureEquivalence:
    def test_noiseless_outputs_agree(self, architecture_name, memory):
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        circuit = architecture.build_circuit()
        state = architecture.input_state()
        tape = get_engine().run(circuit, state)
        # The dense output merges paths per basis state: compare as dicts.
        assert _amplitudes_match(tape, _dense(circuit, state))

    @pytest.mark.parametrize("noise", NOISE_MODELS)
    def test_noisy_shots_match_the_oracle(self, architecture_name, memory, noise):
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        assert_tape_matches_oracle(
            architecture.build_circuit(),
            architecture.input_state(),
            noise,
            8,
            as_shot_seeds(np.random.default_rng(11)),
        )

    def test_dense_output_is_the_ideal_query(self, architecture_name, memory):
        # The noiseless cross-check: a dense run of the query circuit
        # answers every address with its memory bit, with no path engine
        # involved.
        architecture = make_architecture(architecture_name, memory, qram_width=2)
        state = architecture.input_state()
        dense = _dense(architecture.build_circuit(), state)
        assert _amplitudes_match(dense, architecture.ideal_output(state))
        result = architecture.run_query(None, shots=4, rng=0)
        assert result.fidelities == pytest.approx(np.ones(4))


class TestFusionStress:
    """Crafted circuits exercising the tape compiler's fusion rules."""

    def _compare(self, circuit: QuantumCircuit, state: PathState) -> None:
        tape = get_engine().run(circuit, state)
        assert _amplitudes_match(tape, _dense(circuit, state), tol=1e-12)
        noise = DepolarizingNoise(0.2)
        assert_tape_matches_oracle(circuit, state, noise, 4, ShotSeeds(7))

    def test_overlapping_cx_chain(self):
        # Sequential CX chain sharing qubits: must not fuse into one batch.
        circuit = QuantumCircuit(4)
        for q in range(3):
            circuit.cx(q, q + 1)
        state = PathState.register_superposition(4, register=[0])
        self._compare(circuit, state)

    def test_parallel_then_overlapping_swaps(self):
        circuit = QuantumCircuit(6)
        circuit.swap(0, 1)
        circuit.swap(2, 3)
        circuit.swap(4, 5)  # disjoint run
        circuit.swap(1, 2)  # overlaps the run
        circuit.swap(0, 5)
        state = PathState.register_superposition(6, register=[0, 2, 4])
        self._compare(circuit, state)

    def test_diagonal_runs_accumulate_phases(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.x(q)
        for q in range(4):
            circuit.s(q)
        for q in range(4):
            circuit.t(q)
        for q in range(4):
            circuit.z(q)
        circuit.sdg(1)
        circuit.tdg(2)
        state = PathState.register_superposition(4, register=[0, 1])
        self._compare(circuit, state)

    def test_y_run_phase_bookkeeping(self):
        circuit = QuantumCircuit(3)
        circuit.y(0)
        circuit.y(1)
        circuit.y(2)
        circuit.y(0)  # second run after overlap
        state = PathState.register_superposition(3, register=[0, 2])
        self._compare(circuit, state)

    def test_mcx_arities_not_mixed(self):
        circuit = QuantumCircuit(8)
        circuit.mcx([0, 1, 2], 3)
        circuit.mcx([4, 5], 6)  # CCX, different opcode
        circuit.mcx([0, 1, 4], 7)  # same arity as first but overlapping
        state = PathState.register_superposition(8, register=[0, 1, 2, 4, 5])
        self._compare(circuit, state)

    def test_cz_and_mixed_permutations(self):
        circuit = QuantumCircuit(5)
        circuit.cz(0, 1)
        circuit.cz(2, 3)
        circuit.ccx(0, 1, 4)
        circuit.cswap(0, 2, 3)
        circuit.cz(0, 4)
        state = PathState.register_superposition(5, register=[0, 1, 2])
        self._compare(circuit, state)

    def test_identity_gates_keep_their_noise_sites(self):
        # I gates execute nothing but still trigger gate-based noise, and the
        # error must land *between* the surrounding gates, not after them.
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.i(0)
        circuit.cx(0, 1)
        state = PathState.from_basis_assignments([({}, 1.0)], 2)
        noise = GateNoiseModel(PauliChannel.bit_flip(0.5))
        for seed in range(5):
            assert_tape_matches_oracle(circuit, state, noise, 16, ShotSeeds(seed))

    def test_offsite_noise_inside_fused_run_re_fuses(self):
        # A crosstalk-style model placing an error on a qubit the fused run
        # touches later: the compiler re-fuses so the error still lands
        # between the two CXs, as sequential execution places it.
        from repro.sim import NoiseModel

        class CrosstalkNoise(NoiseModel):
            def gate_error_channels(self, instr):
                if instr.gate == "CX" and instr.qubits == (0, 1):
                    return [(2, PauliChannel(p_x=1.0))]
                return []

        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)  # fuses with the first CX and touches qubit 2
        state = PathState.from_basis_assignments([({}, 1.0)], 4)
        bits, _, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
            circuit, state, CrosstalkNoise(), 2, rng=np.random.default_rng(0)
        )
        assert np.array_equal(
            np.asarray(bits).astype(int), [[0, 0, 1, 1], [0, 0, 1, 1]]
        )
        assert_tape_matches_oracle(circuit, state, CrosstalkNoise(), 2, ShotSeeds(0))

    def test_offsite_noise_outside_fused_run_still_agrees(self):
        # Off-operand sites are fine when no later gate in the group touches
        # the qubit: the deferred application commutes.
        from repro.sim import NoiseModel

        class SpectatorNoise(NoiseModel):
            def gate_error_channels(self, instr):
                if instr.gate == "CX" and instr.qubits == (0, 1):
                    return [(3, PauliChannel(p_x=1.0))]
                return []

        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(1, 2)  # overlaps: new group, so qubit 3 is never mid-run
        state = PathState.from_basis_assignments([({}, 1.0)], 4)
        # No conflict: the site table keeps the circuit's own tape.
        assert ir.compile_circuit(circuit).noise_sites(SpectatorNoise()).tape is None
        assert_tape_matches_oracle(circuit, state, SpectatorNoise(), 2, ShotSeeds(0))

    @pytest.mark.parametrize(
        "noise_name", ["depolarizing", "idle", "spectator"], ids=str
    )
    def test_conflict_free_models_execute_the_circuit_tape(
        self, noise_name, monkeypatch
    ):
        from repro.sim import NoiseModel, with_idle_noise
        from repro.sim import engine as engine_module

        class SpectatorNoise(NoiseModel):
            def gate_error_channels(self, instr):
                return [(5, PauliChannel(p_z=0.5))] if instr.gate == "CX" else []

        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.x(4)
        noise = {
            "depolarizing": DepolarizingNoise(0.1),
            "idle": with_idle_noise(
                DepolarizingNoise(0.1), circuit, PauliChannel.phase_flip(0.1)
            ),
            "spectator": SpectatorNoise(),
        }[noise_name]
        executed = []
        execute = engine_module._execute_stacked_shots
        monkeypatch.setattr(
            engine_module,
            "_execute_stacked_shots",
            lambda tape, *args: executed.append(tape) or execute(tape, *args),
        )
        state = PathState.register_superposition(6, [0, 2])
        get_engine("feynman-tape").run_noisy_shots_recorded(
            circuit, state, noise, 3, rng=1
        )
        assert executed == [ir.compile_circuit(circuit)]
        assert executed[0] is ir.compile_circuit(circuit)

    def test_conflicting_model_runs_the_refused_tape_after_one_lookup(
        self, monkeypatch
    ):
        from repro.sim import NoiseModel
        from repro.sim import engine as engine_module

        class CrosstalkNoise(NoiseModel):
            def gate_error_channels(self, instr):
                return [(2, PauliChannel(p_x=0.5))] if instr.qubits == (0, 1) else []

        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        noise = CrosstalkNoise()
        lookups = []
        noise_sites = ir.GateTape.noise_sites
        monkeypatch.setattr(
            ir.GateTape,
            "noise_sites",
            lambda tape, model: lookups.append(model) or noise_sites(tape, model),
        )
        executed = []
        execute = engine_module._execute_stacked_shots
        monkeypatch.setattr(
            engine_module,
            "_execute_stacked_shots",
            lambda tape, *args: executed.append(tape) or execute(tape, *args),
        )
        state = PathState.register_superposition(4, [0])
        for _ in range(2):
            get_engine("feynman-tape").run_noisy_shots_recorded(
                circuit, state, noise, 3, rng=1
            )
        assert lookups == [noise, noise]
        refused = noise_sites(ir.compile_circuit(circuit), noise).tape
        assert executed == [refused, refused] and executed[0] is refused
        assert refused.num_groups == 2

    def test_barriers_are_dropped(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.cx(0, 1)
        state = PathState.from_basis_assignments([({}, 1.0)], 3)
        self._compare(circuit, state)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(circuit=random_reversible_circuits())
    def test_random_circuits_noiseless(self, circuit):
        state = PathState.register_superposition(
            circuit.num_qubits, register=list(range(min(3, circuit.num_qubits)))
        )
        tape = get_engine().run(circuit, state)
        assert _amplitudes_match(tape, _dense(circuit, state), tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(circuit=random_reversible_circuits(max_qubits=5, max_gates=15))
    def test_random_circuits_noisy_trajectories(self, circuit):
        state = PathState.register_superposition(
            circuit.num_qubits, register=[0, 1]
        )
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        assert_tape_matches_oracle(circuit, state, noise, 8, ShotSeeds(99))


class TestEngineErrors:
    def test_feynman_engine_executes_branching_gates(self):
        # H used to be rejected outright; it now branches the path set, so
        # the Feynman engine must produce the uniform |+> superposition.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 1)
        out = get_engine("feynman-tape").run(circuit, state)
        assert out.num_paths == 2
        assert np.allclose(np.abs(out.amplitudes), 1 / np.sqrt(2))

    def test_feynman_engine_rejects_over_budget_branching(self):
        circuit = QuantumCircuit(ir.MAX_BRANCHES + 1)
        for qubit in range(circuit.num_qubits):
            circuit.h(qubit)
        state = PathState.from_basis_assignments([({}, 1.0)], circuit.num_qubits)
        with pytest.raises(ir.BranchBudgetError, match="branch budget"):
            get_engine("feynman-tape").run(circuit, state)

    def test_measured_shot_blocks_sample_per_shot_outcomes(self):
        # Every shot draws its outcome from its own stream, so a measured
        # block mixes outcomes across shots.
        circuit = QuantumCircuit(2)
        circuit.measure(0)
        circuit.cx(0, 1)
        state = PathState.register_superposition(2, [0])
        packed, _, _ = get_engine().run_noisy_shots_recorded(
            circuit, state, NoiselessModel(), 8, rng=5
        )
        bits = np.asarray(packed)
        assert bits[::2, 0].astype(int).tolist() == [0, 1, 1, 1, 1, 0, 1, 0]

    def test_qubit_count_mismatch_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = PathState.from_basis_assignments([({}, 1.0)], 3)
        with pytest.raises(ValueError, match="qubits"):
            get_engine().run(circuit, state)
        with pytest.raises(ValueError, match="qubit count"):
            _dense(circuit, state)

    def test_engines_do_not_mutate_input_state(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.y(1)
        state = PathState.from_basis_assignments([({}, 1.0)], 2)
        before_bits = state.bits.copy()
        before_amps = state.amplitudes.copy()
        for run in (get_engine().run, _dense):
            run(circuit, state)
            assert np.array_equal(state.bits, before_bits)
            assert np.array_equal(state.amplitudes, before_amps)

    def test_zero_path_state_runs_to_zero_paths(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        state = PathState(bits=np.zeros((0, 2), dtype=bool), amplitudes=[])
        engine = get_engine("feynman-tape")
        assert engine.run(circuit, state).bits.shape == (0, 2)
        noise = GateNoiseModel(PauliChannel.depolarizing(0.5))
        bits, amps, _ = engine.run_noisy_shots_recorded(
            circuit, state, noise, 3, rng=1
        )
        assert bits.shape == (0, 2) and amps.shape == (0,)


def _count_recorded_runs(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the two names the layer tracer patches; log ``(shots, rows)``.

    The tracer wraps ``run_noisy_shots_recorded`` on the class that
    ``get_engine(None)`` returns, reading ``result[0].shape[0]``, and
    ``shot_fidelities`` in every module that binds it by name.
    """
    calls = []
    recorded = FeynmanPathSimulator.run_noisy_shots_recorded
    reduce = engine_module.shot_fidelities

    def counting(self, circuit, state, noise, shots, *args, **kwargs):
        result = recorded(self, circuit, state, noise, shots, *args, **kwargs)
        calls.append((shots, result[0].shape[0]))
        return result

    def reducing(*args, **kwargs):
        calls.append(("reduced", kwargs["shots"]))
        return reduce(*args, **kwargs)

    monkeypatch.setattr(FeynmanPathSimulator, "run_noisy_shots_recorded", counting)
    monkeypatch.setattr(engine_module, "shot_fidelities", reducing)
    return calls


class TestInstrumentationContract:
    """Every production noisy query reaches the hooks the layer tracer patches."""

    def test_shared_instance_is_the_simulator_class(self):
        assert type(get_engine(None)) is FeynmanPathSimulator

    @pytest.mark.parametrize(
        "worker, spec, paths",
        [
            (gate_noise_shard, ("ours", 3, 2, "Z", 1e-2, 7), 8),
            (scenario_shard, (get_scenario("ideal-m3"), 10.0, 7), 8),
        ],
        ids=["gate_noise_shard", "scenario_shard"],
    )
    def test_one_recorded_run_per_shard(self, worker, spec, paths, monkeypatch):
        calls = _count_recorded_runs(monkeypatch)
        SweepRunner(workers=1, shard_size=3).map_shards(
            worker, [spec], shots=8, seed=5
        )
        assert calls == [
            (3, 3 * paths), ("reduced", 3),
            (3, 3 * paths), ("reduced", 3),
            (2, 2 * paths), ("reduced", 2),
        ]

    def test_one_recorded_run_per_query(self, memory, monkeypatch):
        calls = _count_recorded_runs(monkeypatch)
        architecture = make_architecture("virtual", memory, qram_width=2)
        architecture.run_query(DepolarizingNoise(0.01), shots=4, rng=0)
        assert calls == [(4, 4 * memory.size), ("reduced", 4)]
