"""Differential tests for the vectorised seeded draw kernel.

:meth:`NoiseSiteTable.events_from_uniforms` turns a block of uniforms into
packed error events, ``((site * shots + shot) << 2) | code``, with one full
threshold comparison per uniform and two more per hit; the reference is
``np.searchsorted(thresholds, u, side="right")``, the threshold sampler's
own mapping, read through :func:`tests.events.densify`.  The two agree only
while every site's thresholds are sorted and the comparisons treat ties
exactly like ``side="right"``, so the cases below sit on the thresholds
themselves, on their neighbouring doubles, and on degenerate channels whose
thresholds coincide.

The hypothesis properties then pin the whole per-shot draw
(:func:`draw_shot_randomness`) against the reference it replaced -- two
generator calls per shot (measurement uniforms, then site uniforms) and one
``searchsorted`` per run of equal channels -- and the packed-event contract
itself: the events are ``flatnonzero`` over the dense reference codes, no
event is zero (perfbench counts ``sim.error_events`` as
``np.count_nonzero(events)``), and a window's events are its sub-windows'
events, re-indexed.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit.ir import NoiseSiteTable
from repro.sim import ShotSeeds
from repro.sim.noise import PauliChannel
from repro.sim.seeding import draw_shot_randomness
from tests.events import densify, pack_events

#: Degenerate and ordinary channels: ``p_total`` of 0 and 1, repeated
#: thresholds from ``p_x = 0`` and/or ``p_y = 0``, and generic rates.
EDGE_CHANNELS = (
    PauliChannel(),
    PauliChannel(p_x=0.3, p_y=0.3, p_z=0.4),
    PauliChannel(p_z=1.0),
    PauliChannel(p_x=1.0),
    PauliChannel(p_y=1.0),
    PauliChannel(p_y=0.1, p_z=0.2),
    PauliChannel(p_x=0.1, p_z=0.05),
    PauliChannel(p_z=0.3),
    PauliChannel(p_x=0.2, p_y=0.3),
    PauliChannel.depolarizing(0.03),
    PauliChannel.depolarizing(1e-3 / 7),
)


def site_table(channels) -> NoiseSiteTable:
    """A table over ``channels``; only the channel sequence matters to draws."""
    placeholder = np.zeros(len(channels), dtype=np.int32)
    return NoiseSiteTable(
        gate_index=placeholder,
        qubit=placeholder,
        group_index=placeholder,
        channels=tuple(channels),
    )


def old_cumulative(channel: PauliChannel) -> np.ndarray:
    """The thresholds exactly as the per-run sampler used to spell them."""
    return np.array(
        [
            1.0 - channel.p_total,
            1.0 - channel.p_total + channel.p_x,
            1.0 - channel.p_total + channel.p_x + channel.p_y,
        ]
    )


def boundary_uniforms(channel: PauliChannel) -> np.ndarray:
    """Every threshold, its neighbouring doubles, and the ends of [0, 1)."""
    values = [0.0, np.nextafter(1.0, 0.0)]
    for threshold in channel.thresholds:
        values += [
            threshold,
            np.nextafter(threshold, -np.inf),
            np.nextafter(threshold, np.inf),
        ]
    return np.array(values)


def reference_draw(sites, seeds: ShotSeeds, shots: int, n_measurements: int):
    """The per-run, two-call draw the vectorised kernel replaced."""
    codes = (
        np.empty((sites.n_sites, shots), dtype=np.int64) if sites is not None else None
    )
    uniforms = np.empty((n_measurements, shots)) if n_measurements else None
    for shot in range(shots):
        generator = seeds.generator(shot)
        if uniforms is not None:
            uniforms[:, shot] = generator.random(n_measurements)
        if codes is None:
            continue
        start = 0
        for channel, run in groupby(sites.channels):
            stop = start + len(list(run))
            codes[start:stop, shot] = np.searchsorted(
                old_cumulative(channel), generator.random(stop - start), side="right"
            )
            start = stop
    return codes, uniforms


class TestThresholds:
    @pytest.mark.parametrize("channel", EDGE_CHANNELS)
    def test_thresholds_are_the_old_doubles(self, channel):
        np.testing.assert_array_equal(channel.thresholds, old_cumulative(channel))

    @pytest.mark.parametrize("channel", EDGE_CHANNELS)
    def test_thresholds_are_sorted(self, channel):
        t0, t1, t2 = channel.thresholds
        assert t0 <= t1 <= t2

    def test_table_caches_per_site_thresholds(self):
        table = site_table([EDGE_CHANNELS[5]] * 3 + [EDGE_CHANNELS[9]] * 2)
        rows = table.thresholds
        assert table.thresholds is rows
        np.testing.assert_array_equal(
            np.stack(rows).T,
            [EDGE_CHANNELS[5].thresholds] * 3 + [EDGE_CHANNELS[9].thresholds] * 2,
        )


def kernel_codes(table: NoiseSiteTable, block: np.ndarray) -> np.ndarray:
    """The kernel's events for a ``(rows, n_sites)`` block, as ``block``-shaped codes."""
    return densify(table.events_from_uniforms(block), table.n_sites, len(block)).T


class TestKernelAgainstSearchsorted:
    @pytest.mark.parametrize("channel", EDGE_CHANNELS)
    def test_on_and_next_to_every_threshold(self, channel):
        uniforms = boundary_uniforms(channel)
        codes = kernel_codes(site_table([channel]), uniforms[:, None])[:, 0]
        expected = np.searchsorted(channel.thresholds, uniforms, side="right")
        np.testing.assert_array_equal(codes, expected)

    def test_mixed_table_on_boundaries(self):
        """Every site of a many-run table at once, on its own boundaries."""
        channels = [EDGE_CHANNELS[i % len(EDGE_CHANNELS)] for i in range(40)]
        columns = [boundary_uniforms(channel) for channel in channels]
        block = np.stack(columns, axis=1)
        codes = kernel_codes(site_table(channels), block)
        for site, channel in enumerate(channels):
            np.testing.assert_array_equal(
                codes[:, site],
                np.searchsorted(channel.thresholds, block[:, site], side="right"),
            )

    def test_events_are_sorted_nonzero_int64(self):
        table = site_table(EDGE_CHANNELS)
        block = np.random.default_rng(4).random((6, len(EDGE_CHANNELS)))
        events = table.events_from_uniforms(block)
        assert events.dtype == np.int64 and events.ndim == 1
        assert np.all(np.diff(events) > 0)
        assert np.count_nonzero(events) == events.size
        assert set((events & 3).tolist()) <= {1, 2, 3}

    @pytest.mark.parametrize("channel", EDGE_CHANNELS)
    def test_window_draw_matches_per_shot_searchsorted(self, channel):
        seeds = ShotSeeds(seed=31, start=2)
        events, _ = draw_shot_randomness(site_table([channel] * 25), seeds, 3)
        assert events.dtype == np.int64 and events.ndim == 1
        codes = densify(events, 25, 3)
        for shot in range(3):
            expected = np.searchsorted(
                channel.thresholds, seeds.generator(shot).random(25), side="right"
            )
            np.testing.assert_array_equal(codes[:, shot], expected)


probabilities = st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1 / 3, 0.5, 1.0]) | st.floats(
    0.0, 1.0
)


@st.composite
def channels(draw) -> PauliChannel:
    """A Pauli channel, often with one or more rates exactly zero."""
    p_x = draw(probabilities)
    p_y = min(draw(probabilities), 1.0 - p_x)
    p_z = min(draw(probabilities), max(0.0, 1.0 - p_x - p_y))
    return PauliChannel(p_x=p_x, p_y=p_y, p_z=p_z)


@st.composite
def single_pauli_channels(draw) -> PauliChannel:
    """A pure ``X``, ``Y`` or ``Z`` channel."""
    pauli = draw(st.sampled_from(["p_x", "p_y", "p_z"]))
    return PauliChannel(**{pauli: draw(probabilities)})


@st.composite
def site_tables(draw) -> NoiseSiteTable | None:
    """``None`` or a table whose channels repeat, forming runs of any length."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    pool = draw(st.lists(channels(), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return site_table([pool[pick] for pick in picks])


@st.composite
def event_tables(draw) -> NoiseSiteTable:
    """A one-site table, or runs of repeated channels mixing X/Y/Z and general."""
    pool = draw(
        st.lists(channels() | single_pauli_channels(), min_size=1, max_size=4)
    )
    if draw(st.booleans()):
        return site_table([draw(st.sampled_from(pool))])
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 12)),
            min_size=1,
            max_size=6,
        )
    )
    return site_table([channel for channel, length in runs for _ in range(length)])


window_seeds = st.integers(0, 2**64 - 1)
window_points = st.integers(0, 2**20)
window_starts = st.integers(0, 2**32)


class TestDrawShotRandomnessProperty:
    @settings(max_examples=80)
    @given(
        sites=site_tables(),
        seed=window_seeds,
        point_index=window_points,
        start=window_starts,
        shots=st.integers(0, 5),
        n_measurements=st.integers(0, 3),
    )
    def test_matches_two_call_per_run_reference(
        self, sites, seed, point_index, start, shots, n_measurements
    ):
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        events, uniforms = draw_shot_randomness(sites, seeds, shots, n_measurements)
        ref_codes, ref_uniforms = reference_draw(sites, seeds, shots, n_measurements)
        if sites is None:
            assert events is None
        else:
            assert events.dtype == np.int64 and events.ndim == 1
            np.testing.assert_array_equal(events, pack_events(ref_codes))
        if n_measurements == 0:
            assert uniforms is None
        else:
            assert uniforms.flags.c_contiguous
            np.testing.assert_array_equal(uniforms, ref_uniforms)


class TestPackedEventContract:
    @settings(max_examples=80)
    @given(
        sites=event_tables(),
        seed=window_seeds,
        point_index=window_points,
        start=window_starts,
        shots=st.integers(0, 9),
        n_measurements=st.integers(0, 3),
    )
    def test_events_are_flatnonzero_of_reference_codes(
        self, sites, seed, point_index, start, shots, n_measurements
    ):
        seeds = ShotSeeds(seed=seed, point_index=point_index, start=start)
        events, uniforms = draw_shot_randomness(sites, seeds, shots, n_measurements)
        ref_codes, ref_uniforms = reference_draw(sites, seeds, shots, n_measurements)
        cells = np.flatnonzero(ref_codes)
        np.testing.assert_array_equal(events >> 2, cells)
        np.testing.assert_array_equal(events & 3, ref_codes.ravel()[cells])
        assert events.dtype == np.int64
        assert np.count_nonzero(events) == events.size
        np.testing.assert_array_equal(densify(events, sites.n_sites, shots), ref_codes)
        if n_measurements:
            np.testing.assert_array_equal(uniforms, ref_uniforms)

    @settings(max_examples=60)
    @given(
        sites=event_tables(),
        seed=window_seeds,
        start=window_starts,
        widths=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        n_measurements=st.integers(0, 2),
    )
    @example(
        sites=site_table([PauliChannel(p_x=0.5)] * 3 + [PauliChannel(p_z=0.5)] * 2),
        seed=9,
        start=2**32 - 3,
        widths=[2, 0, 4],
        n_measurements=1,
    )
    def test_shard_invariance(self, sites, seed, start, widths, n_measurements):
        """A window's events are its shifted sub-windows' events, re-indexed."""
        seeds = ShotSeeds(seed=seed, start=start)
        shots = sum(widths)
        events, _ = draw_shot_randomness(sites, seeds, shots, n_measurements)
        pieces = []
        offset = 0
        for width in widths:
            part, _ = draw_shot_randomness(
                sites, seeds.shifted(offset), width, n_measurements
            )
            site, shot = np.divmod(part >> 2, max(width, 1))
            pieces.append(((site * shots + offset + shot) << 2) | (part & 3))
            offset += width
        np.testing.assert_array_equal(events, np.sort(np.concatenate(pieces)))

    def test_window_without_events(self):
        """Rare errors over a few shots: an empty event array, with uniforms."""
        table = site_table([PauliChannel(p_z=1e-12)] * 30 + [PauliChannel()] * 5)
        seeds = ShotSeeds(seed=4, point_index=1)
        events, uniforms = draw_shot_randomness(table, seeds, 6, n_measurements=2)
        assert events.shape == (0,) and events.dtype == np.int64
        ref_codes, ref_uniforms = reference_draw(table, seeds, 6, 2)
        assert not ref_codes.any()
        np.testing.assert_array_equal(uniforms, ref_uniforms)
