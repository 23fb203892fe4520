"""Shared utilities for the per-table / per-figure experiment runners."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.qram.memory import ClassicalMemory
from repro.sim.noise import PauliChannel

#: Seed used by every experiment unless the caller overrides it, so that the
#: numbers quoted in EXPERIMENTS.md are reproducible bit-for-bit.
DEFAULT_SEED = 2023

#: The Pauli error channels the noise figures (9--11) sweep, by label.
ERROR_CHANNELS = {
    "Z": PauliChannel.phase_flip,
    "X": PauliChannel.bit_flip,
}


def experiment_rng(seed: int | None = None) -> np.random.Generator:
    """Random generator with the project-wide default seed."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def resolve_seed(seed: int | None = None) -> int:
    """The concrete integer seed an experiment sweep is keyed on.

    The sweep runner derives every shot's random stream from
    ``(seed, point_index, shot_index)``, so it needs the project-wide
    default made explicit rather than a ``None`` passed through.
    """
    return DEFAULT_SEED if seed is None else seed


def random_memory(
    address_width: int, seed: int | None = None, p_one: float = 0.5
) -> ClassicalMemory:
    """Uniformly random memory, the workload used throughout the evaluation."""
    return ClassicalMemory.random(address_width, rng=experiment_rng(seed), p_one=p_one)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, precision: int = 4
) -> str:
    """Render rows as a fixed-width text table (used by benchmarks and examples)."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    rendered = [[fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def records_to_rows(
    records: Iterable[Mapping[str, object]], columns: Sequence[str]
) -> list[list[object]]:
    """Project a list of record dicts onto a column order."""
    return [[record.get(column, "") for column in columns] for record in records]
