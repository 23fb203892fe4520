"""Edge cases of the Pauli samplers, noise-site tables and result statistics.

These are the boundaries the sweep machinery leans on: degenerate channels
(``p_total`` exactly 0 or 1), empty site windows (noiseless or gateless
circuits under the seeded draw path) and single-shot statistics.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, compile_circuit
from repro.circuit.ir import NoiseSiteTable
from repro.sim import NoiselessModel, ShotSeeds
from repro.sim.fidelity import QueryResult
from repro.sim.noise import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateNoiseModel,
    PauliChannel,
)
from repro.sim.seeding import draw_shot_randomness
from tests.events import densify


def one_channel_table(channel: PauliChannel, size: int) -> NoiseSiteTable:
    """``size`` sites of ``channel``; only the channel sequence matters to draws."""
    placeholder = np.zeros(size, dtype=np.int32)
    return NoiseSiteTable(
        gate_index=placeholder,
        qubit=placeholder,
        group_index=placeholder,
        channels=(channel,) * size,
    )


def reference_codes(channel: PauliChannel, uniforms: np.ndarray) -> np.ndarray:
    """The threshold sampler's definition: one ``searchsorted`` per uniform."""
    return np.searchsorted(channel.thresholds, uniforms, side="right")


def draw_codes(table: NoiseSiteTable, seeds: ShotSeeds, shots: int, **kwargs):
    """``draw_shot_randomness`` with its events laid out as a dense code block."""
    events, uniforms = draw_shot_randomness(table, seeds, shots, **kwargs)
    return densify(events, table.n_sites, shots), uniforms


class TestSeededDrawEdges:
    SEEDS = ShotSeeds(seed=5, point_index=1)

    def test_p_total_zero_is_always_identity(self):
        events, _ = draw_shot_randomness(
            one_channel_table(PauliChannel(), 1000), self.SEEDS, 3
        )
        assert events.size == 0

    def test_p_total_one_never_draws_identity(self):
        channel = PauliChannel(p_x=0.3, p_y=0.3, p_z=0.4)
        assert channel.p_total == pytest.approx(1.0)
        codes, _ = draw_codes(one_channel_table(channel, 1000), self.SEEDS, 3)
        assert not np.any(codes == PAULI_I)
        assert set(np.unique(codes)) <= {PAULI_X, PAULI_Y, PAULI_Z}

    def test_pure_z_channel_at_probability_one(self):
        table = one_channel_table(PauliChannel(p_z=1.0), 500)
        codes, _ = draw_codes(table, self.SEEDS, 2)
        assert np.all(codes == PAULI_Z)

    def test_empty_table_draws_no_codes(self):
        table = one_channel_table(PauliChannel(p_x=0.5), 0)
        events, uniforms = draw_shot_randomness(
            table, self.SEEDS, 4, n_measurements=2
        )
        assert events.size == 0
        for shot in range(4):
            expected = self.SEEDS.generator(shot).random(2)
            np.testing.assert_array_equal(uniforms[:, shot], expected)

    def test_consumes_exactly_one_uniform_per_site(self):
        """The seeded-mode contract: measurement uniforms, then one per site."""
        channel = PauliChannel(p_x=0.2, p_z=0.1)
        codes, uniforms = draw_codes(
            one_channel_table(channel, 17), self.SEEDS, 3, n_measurements=2
        )
        for shot in range(3):
            stream = self.SEEDS.generator(shot).random(19)
            np.testing.assert_array_equal(uniforms[:, shot], stream[:2])
            np.testing.assert_array_equal(
                codes[:, shot], reference_codes(channel, stream[2:])
            )


class TestSampleEdges:
    def test_p_total_zero_sample(self, rng):
        codes = PauliChannel().sample(rng, 7)
        assert codes.shape == (7,)
        assert np.all(codes == PAULI_I)

    def test_p_total_one_sample(self, rng):
        codes = PauliChannel(p_y=1.0).sample(rng, 50)
        assert np.all(codes == PAULI_Y)

    def test_empty_sample(self, rng):
        assert PauliChannel(p_x=0.5).sample(rng, 0).shape == (0,)


class TestEmptySiteWindows:
    def test_noiseless_model_yields_empty_table(self):
        circuit = QuantumCircuit(2)
        circuit.add("CX", 0, 1)
        table = compile_circuit(circuit).noise_sites(NoiselessModel())
        assert table.n_sites == 0
        events, _ = draw_shot_randomness(table, ShotSeeds(seed=3), 5)
        assert events.size == 0

    def test_gateless_circuit_yields_empty_table(self):
        circuit = QuantumCircuit(3)
        circuit.barrier()
        table = compile_circuit(circuit).noise_sites(
            GateNoiseModel(PauliChannel(p_x=0.5))
        )
        assert table.n_sites == 0
        events, _ = draw_shot_randomness(table, ShotSeeds(seed=1), 2)
        assert events.size == 0

    def test_manual_empty_table_draws(self):
        empty = np.empty(0, dtype=np.int32)
        table = NoiseSiteTable(
            gate_index=empty, qubit=empty, group_index=empty, channels=()
        )
        events, uniforms = draw_shot_randomness(table, ShotSeeds(seed=2), 8)
        assert events.size == 0 and events.dtype == np.int64
        assert uniforms is None


class TestQueryResultStatistics:
    def test_std_error_at_single_shot_is_zero(self):
        result = QueryResult(fidelities=np.array([0.75]), shots=1)
        assert result.std_error == 0.0
        assert result.mean_fidelity == pytest.approx(0.75)

    def test_std_error_matches_ddof1_formula(self):
        values = np.array([1.0, 0.5, 0.25, 0.75])
        result = QueryResult(fidelities=values, shots=4)
        assert result.std_error == pytest.approx(np.std(values, ddof=1) / 2.0)

    def test_constant_fidelities_have_zero_error(self):
        result = QueryResult(fidelities=np.ones(16), shots=16)
        assert result.std_error == 0.0
