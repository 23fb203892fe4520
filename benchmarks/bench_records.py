"""Record-store benchmark: packed ``.rrec`` size vs JSON, round-trip identity.

The workload is a synthetic 120k-record sweep, committed once as a
``.rrec`` file and once as a JSON document.  Two properties are measured:

* **Identity** (always gates): ``read_records(write_records(records))``
  must equal the JSON round trip of the same records.  The binary format
  may never change an answer.
* **Size advantage** (gated): JSON bytes over ``.rrec`` bytes.  At 8 bytes
  per field plus one interning table the packed file is well under 0.4x
  the JSON document (advantage well above 2.5x).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_records.py
    PYTHONPATH=src python benchmarks/bench_records.py \
        --report-only --json BENCH_records.json
"""

import argparse
import json
import tempfile
from pathlib import Path

from repro.records import read_records, write_records
from repro.scenarios.record import ScenarioRecord

ROWS = 120_000
#: json_bytes / rrec_bytes must exceed this -- equivalently, the packed file
#: is at most 0.4x the JSON document.
SIZE_ADVANTAGE_TARGET = 2.5

_SCENARIOS = ("htree-swap-m3", "htree-teleport-m3", "ideal-m3", "perth-m1")


def synthesize(rows: int) -> list[ScenarioRecord]:
    """A deterministic synthetic sweep of ``rows`` records (no RNG)."""
    records = []
    for index in range(rows):
        records.append(
            ScenarioRecord(
                scenario=_SCENARIOS[index % len(_SCENARIOS)],
                architecture="virtual",
                m=2 + index % 3,
                k=index % 2,
                mapping="htree",
                routing="swap",
                router="greedy-swap",
                device="htree-grid",
                num_qubits=20 + index % 40,
                logical_gates=100 + index % 1000,
                executed_gates=140 + index % 1400,
                extra_swaps=index % 60,
                link_operations=index % 12,
                measurements=index % 8,
                logical_depth=30 + index % 300,
                executed_depth=40 + index % 500,
                idle_error=1e-5 * (index % 7),
                readout_error=1e-4 * (index % 5),
                error_reduction_factor=float(1 + index % 100),
                shots=1024,
                engine="feynman-tape",
                fidelity=(index % 1000) / 1000.0,
                std_error=(index % 97) / 10_000.0,
                kept_fraction=1.0 - (index % 13) / 100.0,
            )
        )
    return records


def main(argv: list[str] | None = None) -> int:
    """Measure both file sizes; gate round-trip identity and the size ratio."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="downgrade a missed size target from failure to warning "
        "(identity always gates)",
    )
    parser.add_argument(
        "--rows", type=int, default=ROWS, help="synthetic sweep size"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    print(f"workload: {args.rows} synthetic records")
    records = synthesize(args.rows)
    with tempfile.TemporaryDirectory() as root:
        rrec_path = write_records(Path(root, "records.rrec"), records, tag="bench")
        json_path = Path(root, "records.json")
        with json_path.open("w", encoding="utf-8") as handle:
            json.dump(
                [record.json_dict() for record in records],
                handle,
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
            handle.write("\n")
        rrec_bytes = rrec_path.stat().st_size
        json_bytes = json_path.stat().st_size
        with json_path.open(encoding="utf-8") as handle:
            via_json = [ScenarioRecord.from_dict(row) for row in json.load(handle)]
        identical = read_records(rrec_path) == via_json

    size_advantage = json_bytes / rrec_bytes
    print(
        f"size: json {json_bytes} bytes, rrec {rrec_bytes} bytes "
        f"({rrec_bytes / json_bytes:.2f}x on disk, {size_advantage:.1f}x smaller)"
    )
    print(f"rrec round trip equals JSON round trip: {identical}")

    if args.json:
        payload = {
            "benchmark": "records",
            "workload": {"rows": args.rows},
            "bytes": {"json": json_bytes, "rrec": rrec_bytes},
            "identical": identical,
            "gates": {"size_advantage": size_advantage},
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not identical:
        print("FAIL: the .rrec round trip changed the answer")
        return 1
    if size_advantage < SIZE_ADVANTAGE_TARGET:
        message = (
            f"size advantage {size_advantage:.1f}x is below the "
            f"{SIZE_ADVANTAGE_TARGET:.1f}x floor (rrec must be <= 0.4x json)"
        )
        print(f"{'WARN' if args.report_only else 'FAIL'}: {message}")
        return 0 if args.report_only else 1
    print(f"OK: {size_advantage:.1f}x smaller on disk")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
