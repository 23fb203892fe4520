"""Table 2: resource comparison of SQC+BB, SQC+SS and the virtual QRAM (Sec. 7.1).

The paper's table is asymptotic (Big-O); the runner therefore reports, next to
the formula values, the counts measured on built circuits over a sweep of
``(m, k)`` so that the *scaling* claims can be verified:

* Baseline B (SQC+BB) pays an extra factor ``2**k`` in T count/T depth because
  it reloads the address for every page;
* Baseline S (SQC+SS) pays an extra factor ``m`` (quadratic total) in Clifford
  depth because its swap network is not pipelined;
* the virtual QRAM matches or beats both on every metric.
"""

from __future__ import annotations

from repro.analysis.resources import measured_table2_row, table2_formulas
from repro.experiments.common import format_table, random_memory
from repro.sweep import SweepRunner

TABLE2_METRICS: tuple[str, ...] = (
    "qubits",
    "circuit_depth",
    "t_count",
    "t_depth",
    "clifford_depth",
)

TABLE2_ARCHITECTURES: tuple[str, ...] = ("SQC+BB", "SQC+SS", "Ours")


def _table2_point(spec: tuple) -> list[dict[str, object]]:
    """All records of one ``(m, k)`` configuration (deterministic point)."""
    m, k, seed = spec
    memory = random_memory(m + k, seed)
    formulas = table2_formulas(m, k)
    measured = measured_table2_row(memory, m)
    records: list[dict[str, object]] = []
    for architecture in TABLE2_ARCHITECTURES:
        for metric in TABLE2_METRICS:
            records.append(
                {
                    "m": m,
                    "k": k,
                    "architecture": architecture,
                    "metric": metric,
                    "formula": formulas[architecture][metric],
                    "measured": measured[architecture][metric],
                }
            )
    return records


def run_table2(
    configurations: list[tuple[int, int]] | None = None,
    *,
    seed: int | None = None,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Formula and measured records over a sweep of ``(m, k)`` configurations.

    Each configuration is one deterministic sweep point; ``workers``
    parallelises the circuit builds without changing any record.
    """
    if configurations is None:
        configurations = [(2, 1), (3, 2), (4, 2)]
    runner = SweepRunner(workers=workers)
    blocks = runner.map_points(
        _table2_point, [(m, k, seed) for m, k in configurations]
    )
    return [record for block in blocks for record in block]


def table2_report(records: list[dict[str, object]]) -> str:
    """Human-readable Table 2 of ``records`` (from :func:`run_table2`).

    One table per ``(m, k)`` configuration.
    """
    configs = sorted({(r["m"], r["k"]) for r in records})
    lines = []
    for m, k in configs:
        lines.append(f"Table 2 reproduction (m={m}, k={k})")
        rows = []
        for metric in TABLE2_METRICS:
            row: list[object] = [metric]
            for architecture in TABLE2_ARCHITECTURES:
                entry = next(
                    r
                    for r in records
                    if r["m"] == m
                    and r["k"] == k
                    and r["architecture"] == architecture
                    and r["metric"] == metric
                )
                row.append(f"{entry['measured']} ({entry['formula']:g})")
            rows.append(row)
        headers = ["metric"] + [f"{a} meas.(formula)" for a in TABLE2_ARCHITECTURES]
        lines.append(format_table(headers, rows))
        lines.append("")
    return "\n".join(lines)


def advantage_summary(m: int = 4, k: int = 2, *, seed: int | None = None) -> dict[str, float]:
    """Headline ratios showing the virtual QRAM's advantage at one design point."""
    memory = random_memory(m + k, seed)
    measured = measured_table2_row(memory, m)
    ours = measured["Ours"]
    return {
        "t_count_vs_bb": measured["SQC+BB"]["t_count"] / max(ours["t_count"], 1),
        "t_depth_vs_bb": measured["SQC+BB"]["t_depth"] / max(ours["t_depth"], 1),
        "clifford_depth_vs_ss": measured["SQC+SS"]["clifford_depth"]
        / max(ours["clifford_depth"], 1),
        "depth_vs_ss": measured["SQC+SS"]["circuit_depth"]
        / max(ours["circuit_depth"], 1),
    }
