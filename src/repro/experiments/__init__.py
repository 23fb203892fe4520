"""Experiment runners: one module per table/figure of the paper's evaluation.

Every runner returns a list of plain-dict records (easy to assert on in tests
and to benchmark) and has a ``*_report`` companion that renders those records
as a formatted text table, which is what the benchmark harness prints so the
regenerated rows/series can be compared against the paper side by side.  A
report takes only the records it is given and reads its axes from them; it
never produces records itself, so render a subset to get a smaller table
(and no records render as ``""``).

| Paper artefact | Runner |
| -------------- | ------ |
| Table 1 (optimization ablation)        | :func:`repro.experiments.table1.run_table1` |
| Table 2 (architecture comparison)      | :func:`repro.experiments.table2.run_table2` |
| Figure 8 (2D mapping overhead)         | :func:`repro.experiments.fig8.run_fig8` |
| Figure 9 (architecture fidelity)       | :func:`repro.experiments.fig9.run_fig9` |
| Figure 10 (error-reduction sweep)      | :func:`repro.experiments.fig10.run_fig10` |
| Figure 11 (m/k trade-off)              | :func:`repro.experiments.fig11.run_fig11` |
| Figure 12 (device-noise study)         | :func:`repro.experiments.fig12.run_fig12` |
"""

from repro.experiments.common import (
    DEFAULT_SEED,
    experiment_rng,
    format_table,
    random_memory,
    records_to_rows,
)
from repro.experiments.export import (
    export_experiment,
    records_to_csv,
    records_to_markdown,
)
from repro.experiments.fig8 import fig8_report, run_fig8
from repro.experiments.fig9 import fig9_report, run_fig9
from repro.experiments.fig10 import fig10_report, run_fig10
from repro.experiments.fig11 import fig11_report, k_versus_m_decay, run_fig11
from repro.experiments.fig12 import (
    DEFAULT_CONFIGURATIONS,
    HardwareConfiguration,
    fig12_report,
    run_fig12,
)
from repro.experiments.table1 import optimization_savings, run_table1, table1_report
from repro.experiments.table2 import advantage_summary, run_table2, table2_report

__all__ = [
    "DEFAULT_CONFIGURATIONS",
    "DEFAULT_SEED",
    "HardwareConfiguration",
    "advantage_summary",
    "experiment_rng",
    "export_experiment",
    "records_to_csv",
    "records_to_markdown",
    "fig8_report",
    "fig9_report",
    "fig10_report",
    "fig11_report",
    "fig12_report",
    "format_table",
    "k_versus_m_decay",
    "optimization_savings",
    "random_memory",
    "records_to_rows",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_table1",
    "run_table2",
    "table1_report",
    "table2_report",
]
