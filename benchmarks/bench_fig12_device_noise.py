"""Figure 12 / Appendix A: small virtual QRAMs under device-derived noise.

Regenerates the four-configuration fidelity-vs-eps_r study on the
ibm_perth-like and ibmq_guadalupe-like device models, including the extra
SWAP counts forced by their sparse connectivity, and checks the Appendix's
conclusions about how much hardware improvement small QRAMs need.
"""

from conftest import emit

from repro.experiments import DEFAULT_CONFIGURATIONS, fig12_report, run_fig12

FACTORS = (0.1, 1.0, 10.0, 100.0, 1000.0)
SHOTS = 200


def bench_fig12_device_study(run_once):
    records = run_once(run_fig12, DEFAULT_CONFIGURATIONS, FACTORS, shots=SHOTS)
    emit("Figure 12 (device noise study)", fig12_report(records))

    def fidelity(label: str, factor: float) -> float:
        return next(
            r["fidelity"]
            for r in records
            if r["configuration"] == label and r["error_reduction_factor"] == factor
        )

    swaps = {r["configuration"]: r["extra_swaps"] for r in records}
    # Sparse connectivity forces extra SWAPs, more of them for the larger QRAMs.
    assert swaps["m=2,k=1"] > swaps["m=1,k=0"]
    # Current error rates are not enough; 10x better hardware helps a lot and
    # at 1000x (error rates ~1e-5) the query fidelity exceeds 0.98.
    for label in swaps:
        assert fidelity(label, 10.0) >= fidelity(label, 1.0) - 0.02
    assert fidelity("m=1,k=0", 1000.0) > 0.98
    assert fidelity("m=2,k=0", 1000.0) > 0.95


def bench_fig12_swap_overhead_only(run_once):
    """Routing cost of the four configurations (the SWAP counts under the legend).

    Times building and routing each configuration's circuit, nothing else,
    then checks the counts against the scenario compile Figure 12 runs on.
    """
    from repro.experiments.common import DEFAULT_SEED, random_memory
    from repro.experiments.fig12 import configuration_spec
    from repro.hardware.devices import DEVICES
    from repro.hardware.router import make_router
    from repro.scenarios import compile_scenario
    from repro.scenarios.spec import ARCHITECTURES

    specs = {c.label: configuration_spec(c) for c in DEFAULT_CONFIGURATIONS}

    def route_all():
        counts = {}
        for label, spec in specs.items():
            architecture = ARCHITECTURES[spec.architecture](
                memory=random_memory(spec.memory_width, DEFAULT_SEED),
                qram_width=spec.qram_width,
            )
            router = make_router(spec.router, DEVICES[spec.device])
            counts[label] = router.route(architecture.build_circuit()).swap_count
        return counts

    counts = run_once(route_all)
    emit(
        "Figure 12 extra SWAP counts (greedy router)",
        "\n".join(f"{label}: {count} SWAPs" for label, count in counts.items()),
    )
    assert counts["m=2,k=1"] > counts["m=1,k=1"]
    for label, spec in specs.items():
        assert counts[label] == compile_scenario(spec, DEFAULT_SEED).extra_swaps
