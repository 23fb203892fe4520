"""Sharded sweep execution with deterministic seed-splitting.

Every experiment in the reproduction is a *sweep*: a list of parameter
points, each evaluated by a Monte-Carlo shot loop (Figures 9-12) or by a
deterministic computation (Figure 8, Tables 1-2).  This module decomposes a
sweep into ``(sweep_point, shot_shard)`` work units and executes them either
serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`,
merging shard results back into the existing result dataclasses
(:class:`~repro.sim.fidelity.QueryResult`).

Determinism is the design constraint.  Work units carry a
:class:`~repro.sim.seeding.ShotSeeds` window, so every shot's random stream
is keyed on ``(seed, point_index, shot_index)`` via
``numpy.random.SeedSequence`` spawn keys -- never on the shard it landed in
or the worker that ran it.  Merged fidelities are therefore bit-identical
for **any** ``workers`` and **any** ``shard_size``, which is what lets CI run
the same sweep at ``--workers 1`` and ``--workers 4`` and diff the artefacts
byte for byte.

Worker functions must be module-level (picklable by reference) and their
point specs must be picklable values; workers rebuild heavyweight objects
(architectures, routed circuits) from the spec, typically behind a
process-local ``functools.lru_cache``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.sim.fidelity import QueryResult
from repro.sim.seeding import ShotSeeds

#: Shots per shard when the caller does not choose.  Small enough that quick
#: sweeps still split into several units per point, large enough that the
#: per-unit pickling/IPC overhead stays well below the simulation cost.
DEFAULT_SHARD_SIZE = 32

#: Environment variable consulted when ``workers`` is not given.  CI sets it
#: to run the whole tier-1 suite under a fixed worker count.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker-count request to a concrete positive integer.

    ``None`` consults ``REPRO_SWEEP_WORKERS`` (default 1, i.e. serial);
    ``0`` means one worker per CPU core.  A negative count, or an
    environment value that is not a non-negative integer, raises
    ``ValueError`` naming its source.
    """
    source = "workers"
    if workers is None:
        source = WORKERS_ENV_VAR
        text = os.environ.get(WORKERS_ENV_VAR, "").strip() or "1"
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a non-negative integer, got {text!r}"
            ) from None
    if workers < 0:
        raise ValueError(f"{source} must be non-negative, got {workers}")
    return workers or os.cpu_count() or 1


def split_shots(shots: int, shard_size: int) -> list[tuple[int, int]]:
    """Split a shot count into ``(start, count)`` shards of ``shard_size``.

    The trailing shard absorbs the remainder.  The decomposition only
    affects scheduling granularity -- per-shot seeding makes the merged
    results independent of it.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(shard_size, shots - start))
        for start in range(0, shots, shard_size)
    ]


@dataclass(frozen=True)
class ShotShard:
    """One ``(sweep_point, shot range)`` work unit of a Monte-Carlo sweep."""

    point_index: int
    shard_index: int
    start: int
    shots: int
    seed: int

    def seeds(self) -> ShotSeeds:
        """The per-shot seed window covering this shard's shot range."""
        return ShotSeeds(seed=self.seed, point_index=self.point_index, start=self.start)


class SweepRunner:
    """Executes sweep work units serially or across a process pool.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` runs everything in-process (no pool),
        ``0`` uses every CPU core, ``None`` consults the
        ``REPRO_SWEEP_WORKERS`` environment variable (default 1).  The
        worker count never changes results, only wall-clock time.
    shard_size:
        Shots per :class:`ShotShard` (default :data:`DEFAULT_SHARD_SIZE`).
        Also purely a scheduling knob: per-shot seeding makes merged results
        bit-identical across shard sizes.
    """

    def __init__(
        self, workers: int | None = None, shard_size: int | None = None
    ) -> None:
        self.workers = resolve_workers(workers)
        if shard_size is not None and shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.shard_size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepRunner(workers={self.workers}, shard_size={self.shard_size})"

    # ------------------------------------------------------------- execution
    def map_units(self, fn: Callable[..., Any], units: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*unit)`` for every unit, returning results in unit order.

        Serial when ``workers == 1`` or there is at most one unit; otherwise
        the units are distributed over a process pool.  Submission order is
        preserved in the result list, so downstream merging is independent
        of completion order.  A worker exception propagates to the caller.
        """
        if self.workers == 1 or len(units) <= 1:
            return [fn(*unit) for unit in units]
        context = self._pool_context()
        max_workers = min(self.workers, len(units))
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=context) as pool:
            futures = [pool.submit(fn, *unit) for unit in units]
            return [future.result() for future in futures]

    @staticmethod
    def _pool_context():
        """Prefer ``fork`` so workers inherit ``sys.path`` and module state.

        Forked workers see interpreter state a spawned worker would lose:
        ``sys.path`` tweaks (``PYTHONPATH=src`` runs, pytest's rootdir
        insertion -- spawn cannot even unpickle a worker function defined in
        a test module) and scenarios registered at run time.  ``fork`` is
        also the stdlib default on Linux (the platform CI runs), so this adds
        no risk beyond that default; the known caveat is the usual one --
        forking a heavily multi-threaded parent is unsafe -- which the sweep
        workloads avoid.  Platforms without ``fork`` use their default start
        method; every work unit carries its full spec, so results do not
        depend on inherited state.
        """
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return None

    # ------------------------------------------------------------ sweep APIs
    def map_points(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> list[Any]:
        """Evaluate ``fn(spec)`` per sweep point, in order.

        For deterministic (shot-free) sweeps such as Figure 8 and the
        resource tables: each point is one work unit.
        """
        return self.map_units(fn, [(spec,) for spec in specs])

    def shards(self, shots: int, *, seed: int, point_index: int = 0) -> list[ShotShard]:
        """The :class:`ShotShard` decomposition of one point's shot loop."""
        return [
            ShotShard(
                point_index=point_index,
                shard_index=shard_index,
                start=start,
                shots=count,
                seed=seed,
            )
            for shard_index, (start, count) in enumerate(
                split_shots(shots, self.shard_size)
            )
        ]

    def map_shards(
        self,
        fn: Callable[[Any, ShotShard], np.ndarray],
        specs: Sequence[Any],
        *,
        shots: int,
        seed: int,
        point_offset: int = 0,
    ) -> list[QueryResult]:
        """Run a Monte-Carlo sweep and merge shards per point.

        ``fn(spec, shard)`` must return the shard's per-shot fidelity array
        (length ``shard.shots``), drawn under ``shard.seeds()``.  Every point
        gets ``shots`` total shots split by ``self.shard_size``; the merged
        per-point arrays are returned as
        :class:`~repro.sim.fidelity.QueryResult` instances, concatenated in
        shot order so the result is invariant under workers and shard size.

        ``point_offset`` shifts the seed-keying point index of ``specs[0]``,
        letting a caller embed a sub-sweep into a larger sweep's coordinate
        space without re-seeding collisions.
        """
        units: list[tuple[Any, ShotShard]] = []
        for index, spec in enumerate(specs):
            point_index = point_offset + index
            for shard in self.shards(shots, seed=seed, point_index=point_index):
                units.append((spec, shard))
        outputs = self.map_units(fn, units)

        shards_per_point = len(split_shots(shots, self.shard_size))
        results: list[QueryResult] = []
        for point_index in range(len(specs)):
            block = outputs[
                point_index * shards_per_point : (point_index + 1) * shards_per_point
            ]
            fidelities = np.concatenate([np.asarray(part) for part in block])
            if fidelities.shape[0] != shots:
                raise ValueError(
                    f"point {point_index} merged {fidelities.shape[0]} shot "
                    f"fidelities, expected {shots}; shard workers must return "
                    "one value per shot"
                )
            results.append(QueryResult(fidelities=fidelities, shots=shots))
        return results
