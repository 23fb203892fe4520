"""Shared utilities for the per-table / per-figure experiment runners."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.qram.base import QRAMArchitecture
from repro.qram.memory import ClassicalMemory
from repro.qram.query import make_architecture
from repro.sim.noise import GateNoiseModel, PauliChannel
from repro.sweep import ShotShard

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


@lru_cache(maxsize=64)
def _architecture(
    name: str, address_width: int, qram_width: int, seed: int
) -> QRAMArchitecture:
    """Process-local build cache: every shard of a design point, and every
    (error, eps) point sharing it, reuses one compiled circuit."""
    return make_architecture(name, random_memory(address_width, seed), qram_width)


def gate_noise_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    """Per-shot fidelities of one shard of a gate-noise sweep point (Figs. 9--11).

    ``spec`` is ``(architecture, address_width, qram_width, error, epsilon,
    seed)``: the record label of the architecture (``"ours"``, ``"bb"`` or
    ``"ss"``, resolved by :func:`~repro.qram.query.make_architecture`), the
    memory's address width, the QRAM width (smaller when the rest is paged
    through the SQC), the :data:`ERROR_CHANNELS` label, its rate and the
    memory seed.  The shot stream comes from ``shard``, keyed on the point's
    index in the sweep, never on ``spec``.
    """
    name, address_width, qram_width, error_name, epsilon, seed = spec
    architecture = _architecture(name, address_width, qram_width, seed)
    noise = GateNoiseModel(ERROR_CHANNELS[error_name](epsilon))
    return architecture.run_query(noise, shard.shots, rng=shard.seeds()).fidelities


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


def axis(records: Iterable[Mapping[str, object]], key: str) -> list[object]:
    """The distinct values of ``key`` across ``records``, in first-seen order.

    Every runner nests its loops in argument order, so a report reading its
    axes back from the records lists them in the order they were requested.
    """
    return list(dict.fromkeys(record[key] for record in records))


def records_to_rows(
    records: Iterable[Mapping[str, object]], columns: Sequence[str]
) -> list[list[object]]:
    """Project a list of record dicts onto a column order."""
    return [[record.get(column, "") for column in columns] for record in records]
