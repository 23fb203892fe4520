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

This is the one random-stream contract of the noisy simulator
(:mod:`repro.sim.engine`): ``run_noisy_shots_recorded`` passes whatever it
is given through :func:`as_shot_seeds` and draws from the resulting window.
Every shot's generator yields one uniform per noise site, in noise-site
order, and each uniform becomes a Pauli code by comparison against its
site's cumulative thresholds (:attr:`repro.sim.noise.PauliChannel.thresholds`).
:func:`draw_shot_randomness` draws a shot's uniforms in one generator call
and turns a whole window's site uniforms into its error events in one
threshold pass.  Errors are rare, so the events are returned sparse: one
sorted int64 per non-identity code, ``((site * shots + shot) << 2) | code``,
site-major (the order the executor applies them in).  Any sharding of the
shot range reproduces the unsharded run exactly.

The formula above is the definition (:meth:`ShotSeeds.sequence` and
:meth:`ShotSeeds.generator` build it literally, and the tests compare
against them), but the draw does not build one ``SeedSequence`` and
``default_rng`` per shot.  Every entropy word before the shot index is the
same across a window, so :func:`draw_shot_randomness` hashes that prefix
once and derives the whole window's PCG64 states in one vector pass
(:func:`_window_generators`), bit-identical to the per-shot construction.
"""

from __future__ import annotations

from collections.abc import Iterator
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
        for name in ("seed", "point_index", "start"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, int(value))

    def sequence(self, local_shot: int) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of shot ``start + local_shot``."""
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.point_index, self.start + local_shot)
        )

    def generator(self, local_shot: int) -> np.random.Generator:
        """A fresh generator for shot ``start + local_shot`` of this window."""
        return np.random.default_rng(self.sequence(local_shot))

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
    """Draw every shot's seeded randomness up front: ``(events, uniforms)``.

    This is the single implementation of the per-shot random-stream contract
    (the Feynman engine delegates here): each shot's generator is consumed in
    the fixed order -- **measurement uniforms first** (``n_measurements``
    values), **then the noise-site codes** (one threshold draw per site of
    ``sites``, a :class:`~repro.circuit.ir.NoiseSiteTable` or ``None``).
    Because a shot's draws depend only on its own stream, any sharding of
    the shot range reproduces the unsharded draw exactly.

    The window's generator states come from one pass
    (:func:`_window_generators`), and each shot makes one
    ``generator.random`` call for all ``n_measurements + n_sites`` uniforms,
    which consumes the stream exactly like separate calls for the
    measurement and site parts (the bit generator spends one 64-bit word per
    double).  The site uniforms of the whole window then become error events
    in one threshold pass
    (:meth:`~repro.circuit.ir.NoiseSiteTable.events_from_uniforms`).

    Returns ``events``, a sorted 1-D int64 array with one entry
    ``((site * shots + shot) << 2) | code`` per non-identity code (``code``
    is 1-3, so every entry is non-zero; ``None`` without a site table), and
    ``uniforms`` of shape ``(n_measurements, shots)`` (``None`` without
    measurements), laid out shot-per-column so downstream consumers can
    vectorise across the shot axis.
    """
    n_sites = sites.n_sites if sites is not None else 0
    block = np.empty((shots, n_measurements + n_sites))
    if block.size:
        for shot, generator in enumerate(_window_generators(seeds, shots)):
            generator.random(out=block[shot])
    events = None
    if sites is not None:
        events = sites.events_from_uniforms(block[:, n_measurements:])
    uniforms = (
        np.ascontiguousarray(block[:, :n_measurements].T) if n_measurements else None
    )
    return events, uniforms


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _window_generators(seeds: ShotSeeds, shots: int) -> Iterator[np.random.Generator]:
    """``seeds.generator(shot)`` for each shot of the window, derived in one pass.

    One reused generator is loaded with each shot's PCG64 state in turn
    (through the public ``BitGenerator.state`` setter), so consume it before
    advancing the iterator.

    ``SeedSequence(seed, spawn_key=(point, shot))`` hashes its entropy words
    in order: the seed (zero-padded to the pool size), the point index, then
    the shot index.  Every word before the shot's is the same across the
    window, and ``SeedSequence(seed, spawn_key=(point,))`` hashes exactly
    those, so its ``pool`` is the window's pool before the shot words.  Each
    hash step multiplies the hash constant once, and that prefix takes four
    steps per entropy word.  Only the shot words and the
    ``generate_state(4, np.uint64)`` output then run per shot, as uint32
    vector passes over the window, and PCG64's seeding is two 128-bit LCG
    steps in Python ints.  The window is split at multiples of ``2**32``:
    within a piece only the lowest shot word varies, so a shot index that
    needs a second word (``2**32`` and above) takes the same pass.
    """
    prefix = np.random.SeedSequence(seeds.seed, spawn_key=(seeds.point_index,))
    n_prefix = max(len(_words(seeds.seed)), _POOL_SIZE) + len(_words(seeds.point_index))
    prefix_const = (_INIT_A * pow(_MULT_A, _POOL_SIZE * n_prefix, 1 << 32)) & _MASK32
    bit_generator = np.random.PCG64(prefix)
    generator = np.random.Generator(bit_generator)
    first, end = seeds.start, seeds.start + shots
    while first < end:
        last = min(end, (first | _MASK32) + 1)
        low = ((first & _MASK32) + np.arange(last - first)).astype(np.uint32)
        pool = prefix.pool[:, None]
        hash_const = prefix_const
        for word in [low, *map(np.uint32, _words(first)[1:])]:
            hashed, hash_const = _hash(word, hash_const, _MULT_A, _POOL_SIZE)
            mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
            pool = mixed ^ (mixed >> 16)
        state, _ = _hash(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 2 * _POOL_SIZE)
        words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()
        for state_hi, state_lo, seq_hi, seq_lo in words:
            inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _MASK128
            initstate = (state_hi << 64) | state_lo
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128,
                    "inc": inc,
                },
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator
        first = last


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence assembles it: little-endian uint32 words, 0 -> [0]."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash(values, hash_const: int, multiplier: int, steps: int):
    """SeedSequence's hash under ``steps`` successive constants: ``(rows, next const)``.

    Row ``i`` of the ``(steps, n)`` uint32 result hashes ``values`` (one row
    broadcast to all, or row ``i`` of ``values``) with the ``i``-th constant
    of the sequence ``hash_const, hash_const * multiplier, ...`` (mod
    ``2**32``), the way ``hashmix`` and ``generate_state`` advance it.
    """
    consts = [hash_const]
    for _ in range(steps):
        consts.append((consts[-1] * multiplier) & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, None]
    mixed = (values ^ table[:-1]) * table[1:]
    return mixed ^ (mixed >> 16), consts[-1]
