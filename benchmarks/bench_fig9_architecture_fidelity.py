"""Figure 9: query fidelity of Our/BB/SS architectures under Z and X errors.

Regenerates the six fidelity-vs-QRAM-width series at eps = 1e-3 and checks the
paper's qualitative claims: polynomial decay for Z errors in the virtual and
bucket-brigade QRAMs, much faster decay for X errors in the virtual QRAM, and
no resilience at all for Select-Swap.

The Monte-Carlo shot count is reduced from the paper's 1024 to keep the
benchmark runtime reasonable; the seeded runs in EXPERIMENTS.md use the full
count.
"""

from conftest import emit

from repro.experiments import fig9_report, run_fig9

WIDTHS = (1, 2, 3, 4, 5, 6)
SHOTS = 256


def bench_fig9_full_comparison(run_once):
    """All architectures, both error channels, m = 1..6."""
    records = run_once(run_fig9, WIDTHS, shots=SHOTS)
    emit("Figure 9 (eps = 1e-3)", fig9_report(records))

    def fidelity(arch: str, error: str, m: int) -> float:
        return next(
            r["fidelity"]
            for r in records
            if r["architecture"] == arch and r["error"] == error and r["m"] == m
        )

    largest = WIDTHS[-1]
    # Select-Swap has no noise resilience: it is the worst architecture under
    # Z errors at the largest size.
    assert fidelity("ss", "Z", largest) < fidelity("ours", "Z", largest)
    assert fidelity("ss", "Z", largest) < fidelity("bb", "Z", largest)
    # The virtual QRAM tolerates Z errors far better than X errors.
    assert fidelity("ours", "Z", largest) > fidelity("ours", "X", largest)
    # The bucket-brigade baseline stays comparatively robust to X errors.
    assert fidelity("bb", "X", largest) > fidelity("ours", "X", largest) - 0.05


def bench_fig9_z_error_polynomial_decay(run_once):
    """The Z-error fidelity of the virtual QRAM decays slowly (polynomially)."""
    records = run_once(
        run_fig9, WIDTHS, shots=SHOTS, architectures=("ours",), errors=("Z",)
    )
    fidelities = {r["m"]: r["fidelity"] for r in records}
    # Doubling the tree size (m -> m+1) must not halve the fidelity.
    for m in WIDTHS[:-1]:
        assert fidelities[m + 1] > 0.55 * fidelities[m]
    emit(
        "Figure 9 (virtual QRAM, Z errors only)",
        "\n".join(f"m={m}: F={fidelities[m]:.4f}" for m in WIDTHS),
    )
