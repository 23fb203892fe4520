"""Table 2: resource comparison between SQC+BB, SQC+SS and the virtual QRAM.

Regenerates the table at several (m, k) design points and prints both the
paper's Big-O formulas (evaluated with unit constants) and the counts measured
on built circuits, plus the advantage ratios of the virtual QRAM.
"""

from conftest import emit

from repro.experiments import advantage_summary, run_table2, table2_report
from repro.experiments.common import format_table


def bench_table2_small_configurations(run_once):
    """Table 2 at (m=2, k=1) and (m=3, k=2)."""
    records = run_once(run_table2, [(2, 1), (3, 2)])
    assert {record["architecture"] for record in records} == {"SQC+BB", "SQC+SS", "Ours"}
    emit("Table 2 (small configurations)", table2_report(records))


def bench_table2_paper_scale_configuration(run_once):
    """Table 2 at (m=4, k=3): 128 cells on a 16-cell QRAM."""
    records = run_once(run_table2, [(4, 3)])
    ours_t = next(
        r["measured"]
        for r in records
        if r["architecture"] == "Ours" and r["metric"] == "t_count"
    )
    bb_t = next(
        r["measured"]
        for r in records
        if r["architecture"] == "SQC+BB" and r["metric"] == "t_count"
    )
    assert ours_t < bb_t
    emit("Table 2 (m=4, k=3)", table2_report(records))


def bench_table2_advantage_vs_pages(run_once):
    """How the virtual QRAM's advantage scales as the page count grows."""

    def sweep():
        return {k: advantage_summary(m=3, k=k) for k in (1, 2, 3, 4)}

    results = run_once(sweep)
    rows = [
        [k, values["t_count_vs_bb"], values["t_depth_vs_bb"], values["clifford_depth_vs_ss"]]
        for k, values in results.items()
    ]
    emit(
        "Table 2 advantage ratios vs SQC width k (m=3)",
        format_table(
            ["k", "t_count_vs_bb", "t_depth_vs_bb", "clifford_depth_vs_ss"], rows
        ),
    )
    assert results[4]["t_count_vs_bb"] > results[1]["t_count_vs_bb"]
