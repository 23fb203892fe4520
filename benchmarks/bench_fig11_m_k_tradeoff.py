"""Figure 11: fidelity trade-off between QRAM width m and SQC width k.

Regenerates the (m, k) fidelity grids under Z and X noise for error-reduction
factors 1, 10 and 100, and checks the paper's conclusion that fidelity decays
faster along the k axis than along the m axis.
"""

from conftest import emit

from repro.experiments import fig11_report, k_versus_m_decay, run_fig11

QRAM_WIDTHS = (1, 2, 3)
SQC_WIDTHS = (0, 1, 2, 3)
FACTORS = (1.0, 10.0, 100.0)
SHOTS = 192


def bench_fig11_grid(run_once):
    records = run_once(
        run_fig11, QRAM_WIDTHS, SQC_WIDTHS, FACTORS, shots=SHOTS
    )
    emit(
        "Figure 11 (m/k trade-off grids)",
        fig11_report(records),
    )

    decay = k_versus_m_decay(records, error="Z", factor=1.0)
    emit(
        "Figure 11 decay rates (Z errors, eps_r = 1)",
        f"average fidelity drop per +1 in k: {decay['average_drop_per_k']:.4f}\n"
        f"average fidelity drop per +1 in m: {decay['average_drop_per_m']:.4f}",
    )


def bench_fig11_paging_heavy_versus_tree_heavy(run_once):
    """The paper's conclusion -- growing k hurts more than growing m -- compared
    at a fixed total address width of n = 6 (a 64-cell memory): the
    paging-heavy design (m=1, k=5) loses clearly to a tree-heavy design
    (m=4, k=2) under the same Z-noise budget."""
    from repro.experiments.common import experiment_rng, random_memory
    from repro.qram import VirtualQRAM
    from repro.sim import GateNoiseModel, PauliChannel

    def run():
        noise = GateNoiseModel(PauliChannel.phase_flip(1e-3))
        results = {}
        for m in (1, 4):
            memory = random_memory(6)
            architecture = VirtualQRAM(memory=memory, qram_width=m)
            results[m] = architecture.run_query(
                noise, shots=384, rng=experiment_rng()
            ).mean_fidelity
        return results

    results = run_once(run)
    emit(
        "Figure 11 paging-heavy vs tree-heavy (n = 6, Z errors, eps_r = 1)",
        f"m=1, k=5 (paging-heavy): F = {results[1]:.4f}\n"
        f"m=4, k=2 (tree-heavy):   F = {results[4]:.4f}",
    )
    assert results[4] > results[1] + 0.05


def bench_fig11_error_reduction_recovers_fidelity(run_once):
    """At eps_r = 100 every configuration in the sweep is usable again."""
    records = run_once(
        run_fig11, QRAM_WIDTHS, SQC_WIDTHS, (100.0,), shots=SHOTS, errors=("Z",)
    )
    worst = min(record["fidelity"] for record in records)
    emit(
        "Figure 11 (Z errors, eps_r = 100)",
        f"worst-case fidelity across the grid: {worst:.4f}",
    )
    assert worst > 0.9
