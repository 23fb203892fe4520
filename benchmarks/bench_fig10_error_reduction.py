"""Figure 10: virtual QRAM fidelity vs error-reduction factor.

Regenerates the two panels (phase-flip and bit-flip channels) over
eps_r in {0.1, 1, 10, 100, 1000} for m = 1..5 at k = 0, and checks that the
fidelity is monotone in eps_r, that larger trees need better hardware, and
that the Z panel dominates the X panel (the paper's bias-resilience gap).
"""

from conftest import emit

from repro.experiments import fig10_report, run_fig10

WIDTHS = (1, 2, 3, 4, 5)
FACTORS = (0.1, 1.0, 10.0, 100.0, 1000.0)
SHOTS = 192


def bench_fig10_both_panels(run_once):
    records = run_once(run_fig10, WIDTHS, FACTORS, shots=SHOTS)
    emit(
        "Figure 10 (fidelity vs error reduction factor)",
        fig10_report(records),
    )

    def fidelity(error: str, m: int, factor: float) -> float:
        return next(
            r["fidelity"]
            for r in records
            if r["error"] == error
            and r["m"] == m
            and r["error_reduction_factor"] == factor
        )

    # Monotone in the error-reduction factor for every series.
    for error in ("Z", "X"):
        for m in WIDTHS:
            assert fidelity(error, m, 1000.0) >= fidelity(error, m, 0.1) - 0.02
    # At fixed noise, the Z panel dominates the X panel for the larger trees.
    assert fidelity("Z", 5, 1.0) >= fidelity("X", 5, 1.0)
    # At eps_r = 1000 even the largest tree is close to ideal.
    assert fidelity("Z", 5, 1000.0) > 0.98


def bench_fig10_saturation_threshold(run_once):
    """How much error reduction each QRAM width needs to reach F > 0.9 (Z panel)."""
    records = run_once(run_fig10, WIDTHS, FACTORS, shots=SHOTS, errors=("Z",))
    thresholds = {}
    for m in WIDTHS:
        series = sorted(
            (r for r in records if r["m"] == m),
            key=lambda r: r["error_reduction_factor"],
        )
        thresholds[m] = next(
            (r["error_reduction_factor"] for r in series if r["fidelity"] > 0.9),
            float("inf"),
        )
    emit(
        "Figure 10 saturation (smallest eps_r with F > 0.9, Z errors)",
        "\n".join(f"m={m}: eps_r >= {thresholds[m]:g}" for m in WIDTHS),
    )
    # Larger QRAMs need at least as much error reduction as smaller ones.
    assert thresholds[5] >= thresholds[1]
