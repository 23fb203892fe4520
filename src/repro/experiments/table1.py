"""Table 1: resource improvements from the three key optimizations (Sec. 7.1).

For each optimization column (RAW, OPT1 recycling, OPT2 lazy swapping,
OPT3 pipelining, ALL) the runner reports both the paper's closed-form entry
and the value measured on a circuit actually built with those options, so the
claimed savings (fewer qubits, linear instead of quadratic loading depth,
half the classically-controlled gates) can be checked end to end.
"""

from __future__ import annotations

from repro.analysis.resources import (
    OPTIMIZATION_COLUMNS,
    measured_table1_row,
    table1_formulas,
)
from repro.experiments.common import format_table, random_memory
from repro.sweep import SweepRunner

#: Metrics reported per column, in Table 1's row order.
TABLE1_METRICS: tuple[str, ...] = (
    "qubits",
    "circuit_depth",
    "classical_controlled_gates",
)


def _table1_point(spec: tuple) -> list[dict[str, object]]:
    """All records of one ``(m, k)`` configuration (deterministic point)."""
    m, k, seed = spec
    memory = random_memory(m + k, seed)
    formulas = table1_formulas(m, k)
    measured = measured_table1_row(memory, m)
    records: list[dict[str, object]] = []
    for metric in TABLE1_METRICS:
        for column in OPTIMIZATION_COLUMNS:
            records.append(
                {
                    "metric": metric,
                    "column": column,
                    "m": m,
                    "k": k,
                    "formula": formulas[column][metric],
                    "measured": measured[column][metric],
                }
            )
    return records


def run_table1(
    m: int = 4,
    k: int = 2,
    *,
    seed: int | None = None,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Measured-vs-formula records for one ``(m, k)`` configuration."""
    runner = SweepRunner(workers=workers)
    return runner.map_points(_table1_point, [(m, k, seed)])[0]


def table1_report(records: list[dict[str, object]]) -> str:
    """Human-readable Table 1 of ``records`` (from :func:`run_table1`).

    One block per metric.
    """
    if not records:
        return ""
    first = records[0]
    lines = [f"Table 1 reproduction (m={first['m']}, k={first['k']})"]
    for metric in TABLE1_METRICS:
        subset = [r for r in records if r["metric"] == metric]
        rows = [
            [r["column"], r["formula"], r["measured"]] for r in subset
        ]
        lines.append("")
        lines.append(metric)
        lines.append(format_table(["column", "paper formula", "measured"], rows))
    return "\n".join(lines)


def optimization_savings(m: int = 4, k: int = 2, *, seed: int | None = None) -> dict[str, float]:
    """Headline ratios the paper highlights, measured on built circuits.

    * ``qubit_ratio``: qubits with recycling / qubits without (should be < 1).
    * ``depth_ratio``: depth with pipelining / depth without (should shrink
      as ``m`` grows, approaching ``1/m``  asymptotically in the loading term).
    * ``classical_gate_ratio``: classically-controlled gates with lazy
      swapping / without (should be about 0.5 for random data).
    """
    memory = random_memory(m + k, seed)
    measured = measured_table1_row(memory, m)
    return {
        "qubit_ratio": measured["OPT1"]["qubits"] / measured["RAW"]["qubits"],
        "depth_ratio": measured["OPT3"]["circuit_depth"]
        / measured["RAW"]["circuit_depth"],
        "classical_gate_ratio": measured["OPT2"]["classical_controlled_gates"]
        / max(measured["RAW"]["classical_controlled_gates"], 1),
    }
