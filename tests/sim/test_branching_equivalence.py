"""Differential-testing harness for bounded path branching.

Mirrors the PR 4 routing-equivalence suite
(``tests/hardware/test_property_router.py``): hypothesis generates random
circuits exercising the branching code paths and these properties form
the contract (the fixed ``repro-ci`` profile in ``tests/conftest.py`` keeps
CI deterministic):

* **Amplitude oracle.**  On random circuits with bounded mid-circuit ``H``
  plus ``S``/``SDG``/``T`` phases and reversible gates (no measurements),
  the Feynman engine's per-basis-state amplitude sum equals the dense
  ``statevector`` result exactly.
* **Measured oracle.**  Mid-circuit measurements are generated in the
  *collapse-contract* shape the static plan guarantees exactness for -- each
  ``H(q)`` is followed only by gates that keep its two branches
  distinguishable on ``q`` (diagonals, ``CX`` controlled by ``q``, ``X``
  elsewhere) and then a ``Z``-measure of ``q``.  With a shared measurement
  rng, the post-collapse state matches the statevector oracle and the path
  set returns to its pre-branch size; under noise, every shot of a
  :class:`ShotSeeds` window matches the dense oracle of :mod:`tests.oracle`.
* **ShotSeeds sharding.**  On random *noisy* branching circuits with
  measurements in both bases, any split of the shot range reproduces the
  unsharded draw bit for bit -- the invariant that makes sweep results
  independent of worker counts and shard sizes.
* **Noiseless run.**  On the same circuits, the noiseless ``run`` under a
  shot's ``Generator`` returns exactly that one-shot window's bits,
  amplitudes and dtypes.

The X-basis measurement convention (fixed 50/50 outcome draw, the PR 5
teleportation contract) deliberately keeps X measures out of the oracle
properties: they are exact only on uniform-marginal states, which the
teleport expansions guarantee by construction and random circuits do not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.sim import (
    FeynmanPathSimulator,
    NoiselessModel,
    PathState,
    ShotSeeds,
    StatevectorSimulator,
)
from repro.sim.engine import get_engine
from tests.conftest import gate_noise_models
from tests.oracle import assert_tape_matches_oracle

#: Branch points per generated circuit -- comfortably under the default
#: budget of 10 so the harness never trips the typed error path (that path
#: has its own suite in ``tests/scenarios/test_branch_budget.py``).
MAX_BRANCH_GATES = 4


@st.composite
def branching_circuits(draw, max_qubits: int = 5, max_gates: int = 14):
    """Random measurement-free circuits with bounded mid-circuit ``H``."""
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    h_budget = MAX_BRANCH_GATES
    for _ in range(draw(st.integers(1, max_gates))):
        gate = draw(
            st.sampled_from(
                ("H", "S", "SDG", "T", "X", "Y", "Z", "CX", "CZ", "SWAP")
            )
        )
        if gate == "H":
            if h_budget == 0:
                continue
            h_budget -= 1
            circuit.h(draw(st.integers(0, num_qubits - 1)))
        elif gate in ("CX", "CZ", "SWAP"):
            qubits = draw(
                st.lists(
                    st.integers(0, num_qubits - 1),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
            circuit.add(gate, *qubits)
        else:
            circuit.add(gate, draw(st.integers(0, num_qubits - 1)))
    return circuit


@st.composite
def measured_branching_circuits(draw, max_qubits: int = 5):
    """Branch-and-collapse blocks in the static collapse plan's exact shape.

    The input superposition lives on the last qubit only; every block
    branches some earlier qubit ``q``, applies gates that provably keep the
    two branches distinguishable on ``q`` (nothing ever toggles ``q``), and
    closes with a ``Z``-measure of ``q`` -- the entanglement-swapping
    gadget's structure, where per-path weights *are* the true marginal.
    """
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):  # randomised basis prelude
        if draw(st.booleans()):
            circuit.x(qubit)
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(0, num_qubits - 2))
        circuit.h(q)
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(("S", "SDG", "T", "Z", "CZ", "CX", "X")))
            if kind == "CX":
                target = draw(st.integers(0, num_qubits - 1))
                if target != q:
                    circuit.cx(q, target)
            elif kind == "CZ":
                other = draw(st.integers(0, num_qubits - 1))
                if other != q:
                    circuit.cz(q, other)
            elif kind == "X":
                target = draw(st.integers(0, num_qubits - 1))
                if target != q:
                    circuit.x(target)
            else:
                circuit.add(kind, q)
        circuit.measure(q, basis="Z")
    return circuit


@st.composite
def noisy_branching_instances(draw):
    """A random measured branching circuit plus noise, seed and shard split."""
    num_qubits = draw(st.integers(2, 4))
    circuit = QuantumCircuit(num_qubits)
    h_budget = 3
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(
            st.sampled_from(("H", "S", "X", "Z", "CX", "MEASURE-Z", "MEASURE-X"))
        )
        qubit = draw(st.integers(0, num_qubits - 1))
        if kind == "H":
            if h_budget == 0:
                continue
            h_budget -= 1
            circuit.h(qubit)
        elif kind == "CX":
            target = draw(st.integers(0, num_qubits - 1))
            if target != qubit:
                circuit.cx(qubit, target)
        elif kind.startswith("MEASURE"):
            circuit.measure(qubit, basis=kind[-1])
        else:
            circuit.add(kind, qubit)
    noise = draw(gate_noise_models())
    seed = draw(st.integers(0, 2**31 - 1))
    shots = draw(st.integers(2, 6))
    split = draw(st.integers(1, shots - 1))
    return circuit, noise, seed, shots, split


def _superposition_input(circuit) -> PathState:
    register = list(range(min(2, circuit.num_qubits)))
    return PathState.register_superposition(circuit.num_qubits, register)


def _last_qubit_input(circuit) -> PathState:
    """Superposition on the last qubit only (never branched by the blocks)."""
    return PathState.register_superposition(
        circuit.num_qubits, [circuit.num_qubits - 1]
    )


def _assert_amplitudes_match(reference: dict, candidate: dict, context: str):
    for key in set(reference) | set(candidate):
        assert np.isclose(
            reference.get(key, 0.0), candidate.get(key, 0.0), atol=1e-9
        ), f"{context}: amplitude mismatch at {key}"


class TestStatevectorOracle:
    @settings(max_examples=40, deadline=None)
    @given(circuit=branching_circuits())
    def test_branching_amplitudes_match_dense(self, circuit):
        """Measurement-free branching circuits reproduce dense amplitudes."""
        state = _superposition_input(circuit)
        dense = StatevectorSimulator().run_to_path_state(circuit, state).as_dict()
        output = get_engine("feynman-tape").run(circuit, state)
        _assert_amplitudes_match(dense, output.as_dict(), "feynman-tape")

    @settings(max_examples=40, deadline=None)
    @given(circuit=measured_branching_circuits(), seed=st.integers(0, 2**16))
    def test_collapse_contract_measures_match_dense(self, circuit, seed):
        """Branch + Z-collapse blocks agree with the oracle outcome for outcome."""
        state = _last_qubit_input(circuit)
        dense = (
            StatevectorSimulator()
            .run_to_path_state(circuit, state, rng=np.random.default_rng(seed))
            .as_dict()
        )
        output = get_engine("feynman-tape").run(
            circuit, state, rng=np.random.default_rng(seed)
        )
        _assert_amplitudes_match(dense, output.as_dict(), "feynman-tape")
        # Every branch collapsed: the path set is back to its input size.
        assert output.num_paths == state.num_paths

    @settings(max_examples=40, deadline=None)
    @given(
        circuit=measured_branching_circuits(),
        noise=gate_noise_models(),
        seed=st.integers(0, 2**31 - 1),
        shots=st.integers(1, 5),
    )
    def test_noisy_collapse_contract_shots_match_dense(
        self, circuit, noise, seed, shots
    ):
        """Noisy branch + Z-collapse shots equal the dense oracle shot for shot."""
        assert_tape_matches_oracle(
            circuit, _last_qubit_input(circuit), noise, shots, ShotSeeds(seed=seed)
        )


class TestShotSeedsBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(instance=noisy_branching_instances())
    def test_noiseless_run_equals_a_one_shot_window(self, instance):
        """Noiseless ``run`` under a shot's Generator is that shot's window."""
        circuit, _noise, seed, _shots, _split = instance
        state = _superposition_input(circuit)
        seeds = ShotSeeds(seed=seed)
        engine = get_engine("feynman-tape")
        output = engine.run(circuit, state, rng=seeds.generator(0))
        bits, amps, _ = engine.run_noisy_shots_recorded(
            circuit, state, NoiselessModel(), 1, rng=seeds
        )
        assert output.bits.dtype == bool
        assert output.amplitudes.dtype == complex
        assert np.array_equal(output.bits, bits)
        assert np.array_equal(output.amplitudes, amps)

    @settings(max_examples=30, deadline=None)
    @given(instance=noisy_branching_instances())
    def test_any_shard_split_reproduces_the_unsharded_draw(self, instance):
        """Sharding the shot window never changes a single bit or amplitude."""
        circuit, noise, seed, shots, split = instance
        state = _superposition_input(circuit)
        sim = FeynmanPathSimulator()
        bits_all, amps_all, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, shots, rng=ShotSeeds(seed=seed)
        )
        bits_a, amps_a, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, split, rng=ShotSeeds(seed=seed)
        )
        bits_b, amps_b, _ = sim.run_noisy_shots_recorded(
            circuit, state, noise, shots - split, rng=ShotSeeds(seed=seed, start=split)
        )
        assert np.array_equal(bits_all, np.vstack([bits_a, bits_b]))
        assert np.array_equal(amps_all, np.concatenate([amps_a, amps_b]))
