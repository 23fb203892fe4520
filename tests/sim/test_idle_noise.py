"""Schedule-aware idle noise: analytic expectation, slack, and determinism.

The closed form being pinned: a qubit in ``|+>`` idling for ``d`` ASAP
layers under a phase-flip channel of probability ``p`` per layer survives
with fidelity ``(1 + (1 - 2 p)**d) / 2`` (an odd number of Z flips maps
``|+>`` to the orthogonal ``|->``).  The Monte-Carlo estimate must match it
within a few standard errors, and the whole idle path must honour the
per-shot seeding contract (sharding- and engine-invariant).
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, circuit_depth, idle_slack
from repro.sim import (
    FeynmanPathSimulator,
    NoiselessModel,
    PathState,
    ShotSeeds,
    with_idle_noise,
)
from repro.sim.noise import (
    GateNoiseModel,
    PauliChannel,
    ScheduledNoiseModel,
    expected_error_insertions,
    iter_error_sites,
)


def _busy_idle_circuit(depth: int) -> QuantumCircuit:
    """Qubit 0 works for ``depth`` layers; qubit 1 idles the whole time."""
    circuit = QuantumCircuit(2)
    for _ in range(depth):
        circuit.add("X", 0)
    return circuit


class TestIdleSlack:
    def test_trailing_idle_covers_untouched_qubit(self):
        slack = idle_slack(_busy_idle_circuit(7))
        assert slack.depth == 7
        assert slack.final_idle == ((1, 7),)
        assert all(entry == () for entry in slack.gate_idle)

    def test_gap_between_gates_is_charged_at_the_next_gate(self):
        circuit = QuantumCircuit(2)
        circuit.add("X", 1)  # layer 0
        for _ in range(4):  # layers 1..4 keep qubit 0 busy
            circuit.add("X", 0)
        circuit.add("X", 1)  # layer 5? no -- ASAP places it at layer 1
        slack = idle_slack(circuit)
        # ASAP puts the second X(1) in layer 1, so qubit 1 never idles
        # between its gates, only after them.
        assert slack.gate_idle[5] == ()
        assert (1, 2) in slack.final_idle

    def test_barrier_forces_idle(self):
        circuit = QuantumCircuit(2)
        circuit.add("X", 0)
        circuit.add("X", 0)
        circuit.barrier(0, 1)
        circuit.add("X", 1)  # after the barrier: qubit 1 idled 2 layers
        slack = idle_slack(circuit)
        assert slack.gate_idle[2] == ((1, 2),)
        assert slack.depth == 3

    def test_slack_depth_matches_circuit_depth(self):
        circuit = _busy_idle_circuit(5)
        circuit.add("CX", 0, 1)
        assert idle_slack(circuit).depth == circuit_depth(circuit)

    def test_total_idle_layers_accounting(self):
        circuit = _busy_idle_circuit(4)
        assert idle_slack(circuit).total_idle_layers == 4


class TestWithIdleNoise:
    def test_trivial_channel_returns_base(self):
        base = NoiselessModel()
        assert with_idle_noise(base, _busy_idle_circuit(3), PauliChannel()) is base

    def test_site_budget_matches_slack(self):
        circuit = _busy_idle_circuit(6)
        model = with_idle_noise(
            NoiselessModel(), circuit, PauliChannel.phase_flip(0.1)
        )
        assert isinstance(model, ScheduledNoiseModel)
        sites = list(iter_error_sites(circuit, model))
        assert len(sites) == idle_slack(circuit).total_idle_layers
        assert expected_error_insertions(circuit, model) == pytest.approx(0.6)

    def test_positional_model_rejects_unindexed_enumeration(self):
        circuit = _busy_idle_circuit(2)
        model = with_idle_noise(
            NoiselessModel(), circuit, PauliChannel.phase_flip(0.1)
        )
        with pytest.raises(TypeError):
            model.gate_error_channels(circuit.instructions[0])

    def test_model_bound_to_circuit_rejects_longer_circuits(self):
        circuit = _busy_idle_circuit(2)
        model = with_idle_noise(
            NoiselessModel(), circuit, PauliChannel.phase_flip(0.1)
        )
        longer = _busy_idle_circuit(5)
        with pytest.raises(ValueError):
            FeynmanPathSimulator().run_noisy_shots_recorded(
                longer,
                PathState.register_superposition(2, [1]),
                model,
                shots=2,
                rng=ShotSeeds(seed=1),
            )

    def test_scaled_scales_every_layer(self):
        circuit = _busy_idle_circuit(3)
        model = with_idle_noise(
            GateNoiseModel(PauliChannel(p_z=0.2)),
            circuit,
            PauliChannel.phase_flip(0.1),
        )
        halved = model.scaled(0.5)
        assert halved.base.channel.p_z == pytest.approx(0.1)
        assert halved.final_sites[0][1].p_z == pytest.approx(0.05)


class TestAnalyticExpectation:
    DEPTH = 10
    P_IDLE = 0.04
    SHOTS = 4000

    def closed_form(self) -> float:
        return (1.0 + (1.0 - 2.0 * self.P_IDLE) ** self.DEPTH) / 2.0

    @pytest.mark.slow
    def test_idle_qubit_matches_closed_form(self):
        """Monte-Carlo fidelity of one idling |+> qubit vs the closed form."""
        circuit = _busy_idle_circuit(self.DEPTH)
        model = with_idle_noise(
            NoiselessModel(), circuit, PauliChannel.phase_flip(self.P_IDLE)
        )
        state = PathState.register_superposition(2, [1])
        result = FeynmanPathSimulator().query_fidelities(
            circuit,
            state,
            model,
            self.SHOTS,
            keep_qubits=[1],
            rng=ShotSeeds(seed=99),
        )
        expected = self.closed_form()
        # Bernoulli standard error at the expected survival probability.
        sigma = np.sqrt(expected * (1.0 - expected) / self.SHOTS)
        assert abs(result.mean_fidelity - expected) < 4 * sigma

    def test_idle_noise_strictly_hurts(self):
        """Sanity direction check: adding idle noise lowers mean fidelity."""
        circuit = _busy_idle_circuit(self.DEPTH)
        state = PathState.register_superposition(2, [1])
        sim = FeynmanPathSimulator()
        noiseless = sim.query_fidelities(
            circuit, state, NoiselessModel(), 200, keep_qubits=[1],
            rng=ShotSeeds(seed=7),
        )
        noisy = sim.query_fidelities(
            circuit,
            state,
            with_idle_noise(
                NoiselessModel(), circuit, PauliChannel.phase_flip(0.1)
            ),
            200,
            keep_qubits=[1],
            rng=ShotSeeds(seed=7),
        )
        assert noiseless.mean_fidelity == pytest.approx(1.0)
        assert noisy.mean_fidelity < 1.0


class TestIdlePathSeededDeterminism:
    def _run(self, workers: int) -> list:
        from repro.sweep import SweepRunner

        runner = SweepRunner(workers=workers, shard_size=8)
        return runner.map_shards(
            _idle_shard_worker, [0.02, 0.08], shots=48, seed=123
        )

    def test_workers_do_not_change_idle_trajectories(self):
        """ShotSeeds covers the idle path: workers 1 vs 4 are bit-identical."""
        serial = self._run(1)
        parallel = self._run(4)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.fidelities, b.fidelities)


def _idle_shard_worker(p_idle: float, shard) -> np.ndarray:
    """Module-level (picklable) shard worker exercising the idle-noise path."""
    circuit = _busy_idle_circuit(8)
    model = with_idle_noise(
        NoiselessModel(), circuit, PauliChannel.phase_flip(p_idle)
    )
    state = PathState.register_superposition(2, [1])
    result = FeynmanPathSimulator().query_fidelities(
        circuit, state, model, shard.shots, keep_qubits=[1], rng=shard.seeds()
    )
    return result.fidelities
