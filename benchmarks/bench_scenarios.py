"""Scenario subsystem benchmark: mapping overhead is real, sharded, and fast.

The workload is the built-in m = 3 mapping-ablation family (``ideal-m3`` /
``htree-swap-m3`` / ``htree-teleport-m3``) at a fixed seed and shot count,
executed through the sharded sweep runner.  Three properties are measured:

* **Determinism** (always gates): every scenario's records at 4 workers must
  be bit-identical to the serial run.
* **Physics** (gates vs the committed baseline): the fidelity *gap* between
  the ideal and each mapped scenario at ``eps_r = 1`` -- the quantitative
  signature that routing overhead is actually simulated.  The gap is a pure
  function of the seed, so it is machine-independent; each gap is gated
  together with its reciprocal (the checker only enforces lower bounds, so
  the pair brackets the value), and >20% drift in *either* direction flags
  a behavioural change in the mapping/noise stack.
* **Scaling** (gates unless ``--report-only``): the three-scenario sweep must
  reach at least a 2x speedup at 4 workers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
    PYTHONPATH=src python benchmarks/bench_scenarios.py \
        --report-only --json BENCH_scenarios.json
"""

import argparse
import json
import os
import time

from repro.experiments.common import format_table
from repro.scenarios import run_scenario
from repro.sim.engine import ENGINE_NAME

SCENARIOS = ("ideal-m3", "htree-swap-m3", "htree-teleport-m3")
IDEAL, SWAP, TELEPORT = SCENARIOS
SHOTS = 128
SEED = 7
DEFAULT_SHARD_SIZE = 16
SPEEDUP_TARGET = 2.0
SPEEDUP_WORKERS = 4


def _run_family(workers: int, shard_size: int) -> dict[str, list[dict]]:
    return {
        name: run_scenario(
            name, shots=SHOTS, seed=SEED, workers=workers, shard_size=shard_size
        )
        for name in SCENARIOS
    }


def _fidelity_at(records: list[dict], factor: float) -> float:
    return next(
        r["fidelity"] for r in records if r["error_reduction_factor"] == factor
    )


def bench_scenario_family_serial(benchmark):
    """Serial mapping-ablation family: 3 scenarios x 3 eps_r x 128 shots."""
    results = benchmark(_run_family, 1, DEFAULT_SHARD_SIZE)
    assert set(results) == set(SCENARIOS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="downgrade a missed speedup target from failure to warning "
        "(determinism and the fidelity gaps always gate)",
    )
    parser.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE, help="shots per shard"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repeats per worker count (best-of)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    print(
        f"workload: scenarios {', '.join(SCENARIOS)}; {SHOTS} shots, "
        f"shard_size={args.shard_size}, engine={ENGINE_NAME}, "
        f"{os.cpu_count()} cores"
    )

    timings: dict[int, float] = {}
    results_by_workers: dict[int, dict[str, list[dict]]] = {}
    for workers in (1, SPEEDUP_WORKERS):
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            results_by_workers[workers] = _run_family(workers, args.shard_size)
            best = min(best, time.perf_counter() - start)
        timings[workers] = best

    serial = results_by_workers[1]
    determinism_ok = results_by_workers[SPEEDUP_WORKERS] == serial

    ideal = _fidelity_at(serial[IDEAL], 1.0)
    swap_gap = ideal - _fidelity_at(serial[SWAP], 1.0)
    teleport_gap = ideal - _fidelity_at(serial[TELEPORT], 1.0)
    speedup = timings[1] / timings[SPEEDUP_WORKERS]

    rows = [
        [name, _fidelity_at(serial[name], 1.0), _fidelity_at(serial[name], 10.0)]
        for name in SCENARIOS
    ]
    print(format_table(["scenario", "fidelity@eps_r=1", "fidelity@eps_r=10"], rows))
    print(
        f"fidelity gaps at eps_r=1: swap={swap_gap:.4f} teleport={teleport_gap:.4f}"
    )
    print(
        f"serial {timings[1] * 1e3:.0f} ms, {SPEEDUP_WORKERS} workers "
        f"{timings[SPEEDUP_WORKERS] * 1e3:.0f} ms ({speedup:.2f}x)"
    )
    print(f"records bit-identical across worker counts: {determinism_ok}")

    if args.json:
        payload = {
            "benchmark": "scenarios",
            "workload": {
                "scenarios": list(SCENARIOS),
                "shots": SHOTS,
                "seed": SEED,
                "shard_size": args.shard_size,
                "engine": ENGINE_NAME,
                "cores": os.cpu_count(),
            },
            "timings_seconds": {str(w): timings[w] for w in sorted(timings)},
            "determinism_ok": determinism_ok,
            "gates": {
                # x100 keeps the gap metrics comfortably above the checker's
                # relative-tolerance noise floor for small absolute values;
                # the reciprocals turn the checker's one-sided floors into a
                # two-sided bracket (a gap growing >25% shrinks its
                # reciprocal below the 20%-tolerance floor).
                "swap_fidelity_gap_x100": swap_gap * 100.0,
                "swap_fidelity_gap_reciprocal": (
                    1.0 / swap_gap if swap_gap > 0 else 0.0
                ),
                "teleport_fidelity_gap_x100": teleport_gap * 100.0,
                "teleport_fidelity_gap_reciprocal": (
                    1.0 / teleport_gap if teleport_gap > 0 else 0.0
                ),
                f"speedup_at_{SPEEDUP_WORKERS}_workers": speedup,
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not determinism_ok:
        print("FAIL: sharded records differ from the serial reference")
        return 1
    if swap_gap <= 0 or teleport_gap <= 0:
        print(
            "FAIL: mapped scenarios are not strictly below the unmapped "
            f"reference (swap gap {swap_gap:.4f}, teleport gap {teleport_gap:.4f})"
        )
        return 1
    if speedup < SPEEDUP_TARGET:
        message = (
            f"speedup {speedup:.2f}x at {SPEEDUP_WORKERS} workers is below "
            f"the {SPEEDUP_TARGET:.0f}x target"
        )
        if args.report_only:
            # Wall-clock scaling needs real cores; report on shared/serial boxes.
            print(f"WARN: {message}")
            return 0
        print(f"FAIL: {message}")
        return 1
    print(f"OK: {speedup:.2f}x speedup at {SPEEDUP_WORKERS} workers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
