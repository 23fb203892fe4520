"""Monte-Carlo shots on the Feynman engine: degenerate corners and windows.

The tape engine's ``(bits, amps)`` block for a :class:`~repro.sim.ShotSeeds`
window (the contract every sweep, scenario and served run uses), including
one a ``Generator`` seeds, must equal the independent dense oracle of
:mod:`tests.oracle` shot for shot.  These tests pin that on the corners
where a shortcut is most tempting -- no noise, one error pattern shared by
every shot, pure phase noise, measured circuits -- pin sharding as a
hypothesis property over arbitrary windows, and pin the seeded site draw
(:func:`~repro.sim.seeding.draw_shot_randomness`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM
from repro.sim import (
    GateNoiseModel,
    NoiselessModel,
    PauliChannel,
    ShotSeeds,
    get_engine,
)
from repro.sim.paths import PathState
from repro.sim.seeding import as_shot_seeds, draw_shot_randomness
from tests.events import densify
from tests.oracle import assert_tape_matches_oracle

DEPOL = GateNoiseModel(PauliChannel.depolarizing(0.05))


def _compiled():
    architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
    return architecture.compiled_query()


def _run(noise, shots: int, rng):
    compiled = _compiled()
    bits, amps, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
        compiled.circuit, compiled.input_state, noise, shots, rng=rng
    )
    return np.asarray(bits), amps


def _assert_blocks_equal(left, right):
    assert np.array_equal(left[0], right[0])
    assert np.array_equal(left[1], right[1])


def _measured_circuit():
    circuit = QuantumCircuit(num_qubits=2)
    circuit.cx(0, 1)
    cbit = circuit.measure(0, basis="X")
    circuit.cpauli("Z", 1, [cbit])
    circuit.cpauli("X", 0, [cbit])
    state = PathState.register_superposition(2, [0], {0: 0.6, 1: 0.8})
    return circuit, state


class TestEdgeCases:
    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            _run(DEPOL, 0, ShotSeeds(seed=0))

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            _run(DEPOL, -3, ShotSeeds(seed=0))

    @pytest.mark.parametrize(
        "window_source", ["none", "shot-seeds", "generator"]
    )
    def test_noise_free_circuit_ignores_what_seeds_the_window(self, window_source):
        # Without noise sites or measurements no window stream is consumed,
        # so a window from any source must give the seeded tape run exactly.
        rng = {
            "none": None,
            "shot-seeds": ShotSeeds(seed=5),
            "generator": np.random.default_rng(5),
        }[window_source]
        seeded = _run(NoiselessModel(), 6, ShotSeeds(seed=5))
        _assert_blocks_equal(seeded, _run(NoiselessModel(), 6, rng))

    def test_certain_bit_flip_gives_every_shot_one_pattern(self):
        # p_x = 1: every site errs on every shot, so all 8 shots carry the
        # same error pattern and hence the same block.
        noise = GateNoiseModel(PauliChannel(p_x=1.0))
        seeds = ShotSeeds(seed=2)
        bits, amps = _run(noise, 8, seeds)
        compiled = _compiled()
        n_paths = compiled.input_state.num_paths
        for shot in range(1, 8):
            rows = slice(shot * n_paths, (shot + 1) * n_paths)
            assert np.array_equal(bits[rows], bits[:n_paths])
            assert np.array_equal(amps[rows], amps[:n_paths])
        assert_tape_matches_oracle(
            compiled.circuit, compiled.input_state, noise, 8, seeds
        )

    def test_pure_z_noise_only_flips_signs(self):
        # Phase-flip errors never move a path: bits equal the noiseless run,
        # amplitudes differ from it by signs only, and at least one shot
        # picked up a sign at p = 0.2.
        noise = GateNoiseModel(PauliChannel.phase_flip(0.2))
        seeds = ShotSeeds(seed=9)
        bits, amps = _run(noise, 16, seeds)
        clean_bits, clean_amps = _run(NoiselessModel(), 16, seeds)
        assert np.array_equal(bits, clean_bits)
        assert np.array_equal(np.abs(amps), np.abs(clean_amps))
        assert not np.array_equal(amps, clean_amps)
        compiled = _compiled()
        assert_tape_matches_oracle(
            compiled.circuit, compiled.input_state, noise, 16, seeds
        )

    def test_generator_seeded_window_is_deterministic(self):
        first = _run(DEPOL, 16, np.random.default_rng(8))
        second = _run(DEPOL, 16, np.random.default_rng(8))
        _assert_blocks_equal(first, second)
        n_paths = _compiled().input_state.num_paths
        assert first[0].shape[0] == 16 * n_paths

    def test_generator_seeded_window_matches_the_oracle(self):
        # A generator seeds one ShotSeeds window; the block must be that
        # window's, shot for shot.
        seeds = as_shot_seeds(np.random.default_rng(8))
        _assert_blocks_equal(
            _run(DEPOL, 16, np.random.default_rng(8)), _run(DEPOL, 16, seeds)
        )
        compiled = _compiled()
        assert_tape_matches_oracle(
            compiled.circuit, compiled.input_state, DEPOL, 16, seeds
        )

    @pytest.mark.parametrize(
        "channel",
        [PauliChannel.depolarizing(0.05), PauliChannel.phase_flip(0.2)],
        ids=["depolarizing", "phase-flip"],
    )
    def test_measured_circuit_matches_the_oracle(self, channel):
        # Measurement collapse consumes each shot's own uniforms ahead of its
        # site codes; the engine must read them in that order.
        circuit, state = _measured_circuit()
        noise = GateNoiseModel(channel)
        assert_tape_matches_oracle(circuit, state, noise, 12, ShotSeeds(seed=4))


class TestShardingProperty:
    @given(
        windows=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 50),
        point_index=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_windows_reproduce_the_unsharded_tape_run(self, windows, seed, point_index):
        # Any partition of the shot range into ShotSeeds windows, executed
        # window by window, concatenates to the unsharded tape run.
        shots = sum(windows)
        seeds = ShotSeeds(seed=seed, point_index=point_index)
        tape_bits, tape_amps = _run(DEPOL, shots, seeds)
        pieces = []
        start = 0
        for width in windows:
            pieces.append(_run(DEPOL, width, seeds.shifted(start)))
            start += width
        assert np.array_equal(
            tape_bits, np.concatenate([piece[0] for piece in pieces])
        )
        assert np.array_equal(
            tape_amps, np.concatenate([piece[1] for piece in pieces])
        )


class TestSeededDraw:
    def _sites(self, channel: PauliChannel):
        return _compiled().tape.noise_sites(GateNoiseModel(channel))

    def _codes(self, sites, shots: int, seed: int) -> np.ndarray:
        events, _ = draw_shot_randomness(sites, ShotSeeds(seed=seed), shots)
        return densify(events, sites.n_sites, shots)

    def test_deterministic_under_equal_seeds(self):
        sites = self._sites(PauliChannel.depolarizing(0.05))
        first = self._codes(sites, 32, 3)
        second = self._codes(sites, 32, 3)
        assert np.array_equal(first, second)

    def test_codes_are_paulis_with_one_row_per_site(self):
        sites = self._sites(PauliChannel.depolarizing(0.2))
        codes = self._codes(sites, 16, 1)
        assert codes.shape == (sites.n_sites, 16)
        assert np.isin(codes, [0, 1, 2, 3]).all()
        # p = 0.2 over hundreds of cells: every error type shows up.
        assert set(np.unique(codes)) == {0, 1, 2, 3}

    def test_trivial_channel_yields_no_sites_and_no_codes(self):
        sites = self._sites(PauliChannel.phase_flip(0.0))
        assert sites.n_sites == 0
        assert self._codes(sites, 8, 0).shape == (0, 8)

    def test_phase_flip_draws_only_identity_and_z(self):
        sites = self._sites(PauliChannel.phase_flip(0.3))
        codes = self._codes(sites, 16, 7)
        assert (codes == 3).any()
        assert np.isin(codes, [0, 3]).all()
