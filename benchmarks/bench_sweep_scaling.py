"""Sharded sweep runner: speedup vs worker count on a fixed Monte-Carlo sweep.

The workload is the noisy-query setting of Figures 9-11 at the compiled
engine's benchmark point: a capacity-32 virtual QRAM (``m = 5``) with 256
Monte-Carlo shots per sweep point, swept over ``--points`` error-reduction
factors (a Figure-10-style series).  The sweep executes through
:class:`repro.sweep.SweepRunner`, so the shot loops split into deterministic
seed-keyed shards distributed over worker processes.

Two properties are measured:

* **Determinism** (always gates): the records produced at every worker count
  must be bit-identical to the serial run -- this is the seed-splitting
  guarantee the whole subsystem is built on.
* **Scaling** (gates unless ``--report-only``): the sweep must reach at
  least a 2x speedup at 4 workers.  Wall-clock scaling needs real cores, so
  CI gates it on the runners that have them and single-core dev boxes pass
  ``--report-only``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py
    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py \
        --report-only --json BENCH_sweep_scaling.json

``--json`` writes the measurements (including the gated speedup metrics) for
``benchmarks/check_regression.py`` to compare against the committed baseline.
"""

import argparse
import json
import os
import time

from repro.experiments.common import format_table
from repro.experiments.fig10 import run_fig10
from repro.sim.engine import ENGINE_NAME

M = 5
SHOTS = 256
DEFAULT_POINTS = 16
DEFAULT_SHARD_SIZE = 32
DEFAULT_WORKER_COUNTS = (1, 2, 4)
SPEEDUP_TARGET = 2.0
SEED = 7


def _reduction_factors(points: int) -> tuple[float, ...]:
    """A geometric eps_r series of the requested length (Figure 10 style)."""
    return tuple(10.0 ** (index / 4) for index in range(points))


def _run_sweep(workers: int, points: int, shard_size: int) -> list[dict]:
    return run_fig10(
        widths=(M,),
        reduction_factors=_reduction_factors(points),
        shots=SHOTS,
        errors=("Z",),
        seed=SEED,
        workers=workers,
        shard_size=shard_size,
    )


def _timed_sweep(
    workers: int, points: int, shard_size: int, repeats: int
) -> tuple[float, list[dict]]:
    """Best-of-``repeats`` wall-clock and the (deterministic) records."""
    best = float("inf")
    records: list[dict] = []
    for _ in range(repeats):
        start = time.perf_counter()
        records = _run_sweep(workers, points, shard_size)
        best = min(best, time.perf_counter() - start)
    return best, records


def bench_sweep_serial_m5(benchmark):
    """Serial sharded sweep: 16 points x 256 shots of a capacity-32 QRAM."""
    records = benchmark(_run_sweep, 1, DEFAULT_POINTS, DEFAULT_SHARD_SIZE)
    assert len(records) == DEFAULT_POINTS


def bench_sweep_two_workers_m5(benchmark):
    """The identical sweep sharded across two worker processes."""
    records = benchmark(_run_sweep, 2, DEFAULT_POINTS, DEFAULT_SHARD_SIZE)
    assert len(records) == DEFAULT_POINTS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="downgrade a missed speedup target from failure to warning "
        "(determinism always gates)",
    )
    parser.add_argument(
        "--points", type=int, default=DEFAULT_POINTS, help="sweep points"
    )
    parser.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE, help="shots per shard"
    )
    parser.add_argument(
        "--workers",
        type=str,
        default=",".join(str(w) for w in DEFAULT_WORKER_COUNTS),
        help="comma-separated worker counts to time (first must be 1)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repeats per worker count (best-of)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    worker_counts = [int(part) for part in args.workers.split(",") if part.strip()]
    if not worker_counts or worker_counts[0] != 1:
        parser.error("--workers must start with 1 (the serial reference)")

    print(
        f"workload: virtual QRAM m={M}, {args.points} sweep points x {SHOTS} "
        f"shots, shard_size={args.shard_size}, engine={ENGINE_NAME}, "
        f"{os.cpu_count()} cores"
    )

    timings: dict[int, float] = {}
    reference: list[dict] = []
    determinism_ok = True
    rows = []
    for workers in worker_counts:
        seconds, records = _timed_sweep(
            workers, args.points, args.shard_size, args.repeats
        )
        timings[workers] = seconds
        if workers == 1:
            reference = records
        elif records != reference:
            determinism_ok = False
        rows.append([workers, seconds * 1e3, timings[1] / seconds])
    print(format_table(["workers", "best (ms)", "speedup"], rows))
    print(f"records bit-identical across worker counts: {determinism_ok}")

    max_workers = worker_counts[-1]
    speedup = timings[1] / timings[max_workers]

    if args.json:
        payload = {
            "benchmark": "sweep_scaling",
            "workload": {
                "m": M,
                "shots": SHOTS,
                "points": args.points,
                "shard_size": args.shard_size,
                "engine": ENGINE_NAME,
                "cores": os.cpu_count(),
            },
            "timings_seconds": {str(w): timings[w] for w in worker_counts},
            "determinism_ok": determinism_ok,
            "gates": {f"speedup_at_{max_workers}_workers": speedup},
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not determinism_ok:
        print("FAIL: sharded records differ from the serial reference")
        return 1
    if speedup < SPEEDUP_TARGET:
        message = (
            f"speedup {speedup:.2f}x at {max_workers} workers is below the "
            f"{SPEEDUP_TARGET:.0f}x target"
        )
        if args.report_only:
            # Wall-clock scaling needs real cores; report on shared/serial boxes.
            print(f"WARN: {message}")
            return 0
        print(f"FAIL: {message}")
        return 1
    print(f"OK: {speedup:.2f}x speedup at {max_workers} workers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
