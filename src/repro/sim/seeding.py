"""Deterministic per-shot random streams for sharded Monte-Carlo runs.

The sweep runner (:mod:`repro.sweep`) splits a Monte-Carlo experiment into
``(sweep_point, shot_shard)`` work units that may execute in any order across
any number of worker processes.  For the merged results to be bit-identical
to a serial run, the random stream a shot consumes must depend only on *which
shot it is* -- never on which shard it landed in, which worker ran it, or how
many shots share its batch.

:class:`ShotSeeds` encodes that contract.  It derives one independent
:class:`numpy.random.SeedSequence` per shot via the spawn-key mechanism,
keyed on ``(seed, point_index, shot_index)``:

    ``SeedSequence(seed, spawn_key=(point_index, shot_index))``

``spawn_key`` is exactly what ``SeedSequence.spawn`` uses internally, so the
streams are as statistically independent as NumPy's parallel-RNG machinery
guarantees, and two distinct ``(point, shot)`` coordinates can never collide.

This is the one random-stream contract of the noisy engines
(:mod:`repro.sim.engine`): ``run_noisy_shots`` passes whatever it is given
through :func:`as_shot_seeds` and draws from the resulting window.  Every
shot's generator yields one uniform per noise site, in noise-site order, and
each uniform becomes a Pauli code by comparison against its site's
cumulative thresholds (:attr:`repro.sim.noise.PauliChannel.thresholds`, the
threshold sampler of
:meth:`~repro.sim.noise.PauliChannel.sample_thresholded`).
:func:`draw_shot_randomness` draws a shot's uniforms in one generator call
and maps a whole window of shots to codes in one vector pass.  All Feynman
engines share this contract, so their trajectories remain bit-identical to
each other in seeded mode, and any sharding of the shot range reproduces the
unsharded run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ShotSeeds", "as_shot_seeds", "draw_shot_randomness"]


@dataclass(frozen=True)
class ShotSeeds:
    """Per-shot seed stream for one sweep point (see module docstring).

    Parameters
    ----------
    seed:
        Base entropy of the whole sweep (a non-negative integer).
    point_index:
        Index of the sweep point this stream belongs to.
    start:
        Absolute index of the first shot covered by this window.  A shard
        covering shots ``[start, start + shots)`` of a point simply carries a
        shifted window onto the same per-shot streams.
    """

    seed: int
    point_index: int = 0
    start: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.point_index < 0:
            raise ValueError(
                f"point_index must be non-negative, got {self.point_index}"
            )
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")

    def sequence(self, local_shot: int) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of shot ``start + local_shot``."""
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.point_index, self.start + local_shot)
        )

    def generator(self, local_shot: int) -> np.random.Generator:
        """A fresh generator for shot ``start + local_shot`` of this window."""
        return np.random.default_rng(self.sequence(local_shot))

    def generators(self, shots: int) -> list[np.random.Generator]:
        """One independent generator per shot of a ``shots``-wide batch."""
        return [self.generator(index) for index in range(shots)]

    def shifted(self, offset: int) -> "ShotSeeds":
        """The same stream with the window moved ``offset`` shots forward."""
        return replace(self, start=self.start + offset)


def as_shot_seeds(rng: ShotSeeds | int | np.random.Generator | None) -> ShotSeeds:
    """Normalise an engine's ``rng`` argument to a :class:`ShotSeeds` window.

    A window is returned as is and an integer seeds one (``ShotSeeds(seed)``);
    a ``Generator`` seeds one from a single ``integers(2**63)`` draw, and
    ``None`` from fresh OS entropy.  Anything else raises ``TypeError``.
    """
    if isinstance(rng, ShotSeeds):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return ShotSeeds(int(rng))
    if rng is None or isinstance(rng, np.random.Generator):
        # default_rng returns a Generator unchanged and seeds None from the OS.
        return ShotSeeds(int(np.random.default_rng(rng).integers(2**63)))
    raise TypeError(f"rng must be ShotSeeds, int, Generator or None, not {rng!r}")


def draw_shot_randomness(
    sites,
    seeds: ShotSeeds,
    shots: int,
    n_measurements: int = 0,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Draw every shot's seeded randomness up front: ``(codes, uniforms)``.

    This is the single implementation of the per-shot random-stream contract
    (the Feynman engines delegate here): each shot's generator is consumed in
    the fixed order -- **measurement uniforms first** (``n_measurements``
    values), **then the noise-site codes** (one threshold draw per site of
    ``sites``, a :class:`~repro.circuit.ir.NoiseSiteTable` or ``None``).
    Because a shot's draws depend only on its own stream, any sharding of
    the shot range reproduces the unsharded draw exactly.

    Each shot makes one ``generator.random`` call for all
    ``n_measurements + n_sites`` uniforms, which consumes the stream exactly
    like separate calls for the measurement and site parts (the bit
    generator spends one 64-bit word per double).  The site uniforms of the
    whole window then become codes in one vectorised threshold comparison
    (:meth:`~repro.circuit.ir.NoiseSiteTable.codes_from_uniforms`).

    Returns ``codes`` of shape ``(n_sites, shots)`` (``None`` without a site
    table) and ``uniforms`` of shape ``(n_measurements, shots)`` (``None``
    without measurements); both are laid out shot-per-column so downstream
    consumers can vectorise across the shot axis.
    """
    n_sites = sites.n_sites if sites is not None else 0
    block = np.empty((shots, n_measurements + n_sites))
    for shot in range(shots):
        seeds.generator(shot).random(out=block[shot])
    codes = None
    if sites is not None:
        codes = np.ascontiguousarray(
            sites.codes_from_uniforms(block[:, n_measurements:]).T, dtype=np.int64
        )
    uniforms = (
        np.ascontiguousarray(block[:, :n_measurements].T) if n_measurements else None
    )
    return codes, uniforms
