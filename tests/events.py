"""Dense views of the packed error events the seeded draw returns.

:func:`repro.sim.seeding.draw_shot_randomness` returns a window's errors as
one sorted int64 per non-identity Pauli code,
``((site * shots + shot) << 2) | code``.  Tests that pin codes site by site
read them through :func:`densify`, and tests that feed the executor a
hand-made code block pack it with :func:`pack_events`; the two are inverse.
"""

from __future__ import annotations

import numpy as np


def densify(events: np.ndarray, n_sites: int, shots: int) -> np.ndarray:
    """The ``(n_sites, shots)`` int64 code block of packed ``events``."""
    codes = np.zeros(n_sites * shots, dtype=np.int64)
    codes[events >> 2] = events & 3
    return codes.reshape(n_sites, shots)


def pack_events(codes) -> np.ndarray:
    """The packed events of an ``(n_sites, shots)`` code block."""
    flat = np.asarray(codes, dtype=np.int64).ravel()
    cells = np.flatnonzero(flat)
    return (cells << 2) | flat[cells]
