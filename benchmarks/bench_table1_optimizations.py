"""Table 1: resource improvements from the three key optimizations.

Regenerates the RAW / OPT1 / OPT2 / OPT3 / ALL columns (qubits, circuit depth,
classically-controlled gates) both from the paper's formulas and from circuits
actually built with each option set, and prints the headline savings ratios.
"""

from conftest import emit

from repro.experiments import optimization_savings, run_table1, table1_report
from repro.experiments.common import format_table


def bench_table1_small_configuration(run_once):
    """Table 1 at (m=3, k=2): formulas vs measured circuits."""
    records = run_once(run_table1, 3, 2)
    assert len(records) == 15
    emit("Table 1 (m=3, k=2)", table1_report(records))


def bench_table1_paper_scale_configuration(run_once):
    """Table 1 at (m=5, k=3): a 256-cell memory on a 32-cell QRAM."""
    records = run_once(run_table1, 5, 3)
    assert all(record["measured"] > 0 for record in records)
    emit("Table 1 (m=5, k=3)", table1_report(records))


def bench_table1_headline_savings(run_once):
    """The savings ratios the paper highlights, measured at (m=5, k=3)."""
    savings = run_once(optimization_savings, 5, 3)
    rows = [[name, value] for name, value in savings.items()]
    emit(
        "Table 1 headline savings (measured, m=5, k=3)",
        format_table(["ratio", "value"], rows),
    )
    assert savings["qubit_ratio"] < 1.0
    assert savings["classical_gate_ratio"] < 0.75


def bench_table1_scaling_sweep(run_once):
    """Optimization savings across a sweep of QRAM widths (ablation study)."""

    def sweep():
        return {m: optimization_savings(m=m, k=2) for m in (3, 4, 5, 6)}

    results = run_once(sweep)
    rows = [
        [m, values["qubit_ratio"], values["depth_ratio"], values["classical_gate_ratio"]]
        for m, values in results.items()
    ]
    emit(
        "Table 1 savings vs QRAM width (k=2)",
        format_table(["m", "qubit_ratio", "depth_ratio", "classical_gate_ratio"], rows),
    )
    # Pipelining's relative benefit grows with m (the m^2 -> m reduction).
    assert results[6]["depth_ratio"] <= results[3]["depth_ratio"] + 0.05
