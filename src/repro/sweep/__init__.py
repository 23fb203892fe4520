"""Sharded Monte-Carlo sweep execution with deterministic seed-splitting.

Public surface
--------------
* :class:`~repro.sweep.runner.SweepRunner` -- decomposes a sweep into
  ``(sweep_point, shot_shard)`` work units and executes them serially or
  across a process pool; merged results are bit-identical for any worker
  count and shard size.
* :class:`~repro.sweep.runner.ShotShard` -- one work unit, carrying its
  deterministic :class:`~repro.sim.seeding.ShotSeeds` window.
* :func:`~repro.sweep.runner.split_shots` / :func:`~repro.sweep.runner.resolve_workers`
  -- the decomposition and worker-count policies.
* :class:`~repro.sim.seeding.ShotSeeds` -- re-exported per-shot seed streams
  (the contract the execution engine implements).
"""

from repro.sim.seeding import ShotSeeds
from repro.sweep.runner import (
    DEFAULT_SHARD_SIZE,
    WORKERS_ENV_VAR,
    ShotShard,
    SweepRunner,
    resolve_workers,
    split_shots,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "WORKERS_ENV_VAR",
    "ShotSeeds",
    "ShotShard",
    "SweepRunner",
    "resolve_workers",
    "split_shots",
]
