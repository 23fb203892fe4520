"""Figure 8: extra operation depth after mapping onto a 2D grid.

Regenerates the swap-based vs teleportation-based routing overhead series for
QRAM widths 1..9 and checks the paper's qualitative claims (exponential vs
flat growth, ~25% unused grid qubits, topological-minor embedding).
"""

from conftest import emit

from repro.experiments import fig8_report, run_fig8


def bench_fig8_full_sweep(run_once):
    """The full m = 1..9 sweep of the paper's figure."""
    records = run_once(run_fig8, tuple(range(1, 10)))
    assert all(record["topological_minor"] for record in records)
    emit("Figure 8 (m = 1..9)", fig8_report(records))

    by_m = {record["m"]: record for record in records}
    # Teleportation wins for every width where routing is needed at all.
    for m in range(5, 10):
        assert by_m[m]["teleport_extra_depth"] < by_m[m]["swap_extra_depth"]
    # Swap overhead grows super-linearly; teleportation stays near-linear.
    assert by_m[9]["swap_extra_depth"] > 3 * by_m[6]["swap_extra_depth"]
    assert by_m[9]["teleport_extra_depth"] < 3 * by_m[6]["teleport_extra_depth"]


def bench_fig8_unused_qubit_fraction(run_once):
    """Sec. 7.2's layout claim: about 25% of grid qubits stay unused."""
    records = run_once(run_fig8, (4, 6, 8))
    for record in records:
        assert 0.15 <= record["unused_fraction"] <= 0.30
    emit("Figure 8 layout statistics", fig8_report(records))
