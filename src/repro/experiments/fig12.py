"""Figure 12 / Appendix A: small virtual QRAMs under device-derived noise.

The four configurations of the paper's hardware study are routed onto the
matching device topology (``ibm_perth``-like for ``m = 1``,
``ibmq_guadalupe``-like for ``m = 2``), which forces extra SWAP gates because
of the sparse connectivity, and then simulated under the device noise model
scaled by an error-reduction factor ``eps_r``.  The observations to reproduce:

* at current error rates (``eps_r = 1``) the fidelity is poor;
* an order-of-magnitude improvement (``eps_r = 10``) already yields usable
  small-QRAM fidelities;
* at ``eps_r = 1000`` (error rates ~1e-5, e.g. via small-distance error
  correction) the query fidelity exceeds 0.98;
* larger configurations need more SWAPs and correspondingly better hardware.

Each configuration is the scenario layer's ``device`` mapping
(:func:`configuration_spec`): :func:`~repro.scenarios.compile.compile_scenario`
builds, routes and maps its states, and every ``(configuration, eps_r)``
point runs on :func:`~repro.scenarios.run.scenario_shard`, the worker
:func:`~repro.scenarios.run.run_scenario` shards over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import axis, format_table, resolve_seed
from repro.scenarios.spec import ScenarioSpec
from repro.sweep import SweepRunner

DEFAULT_REDUCTION_FACTORS: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_SHOTS = 200


@dataclass(frozen=True)
class HardwareConfiguration:
    """One (m, k, device) point of the Appendix-A study."""

    m: int
    k: int
    device_name: str

    @property
    def label(self) -> str:
        """Human-readable configuration label used in the report."""
        return f"m={self.m},k={self.k}"


DEFAULT_CONFIGURATIONS: tuple[HardwareConfiguration, ...] = (
    HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),
    HardwareConfiguration(m=1, k=1, device_name="ibm_perth"),
    HardwareConfiguration(m=2, k=0, device_name="ibmq_guadalupe"),
    HardwareConfiguration(m=2, k=1, device_name="ibmq_guadalupe"),
)


def configuration_spec(configuration: HardwareConfiguration) -> ScenarioSpec:
    """The scenario that routes one configuration onto its device.

    ``mapping="device"`` with the spec's default router (the greedy stand-in
    for the paper's SABRE pass), no idle noise and no readout folding: the
    plain device gate noise of Appendix A.  The spec's factor grid is the
    figure's default and only describes it: :func:`run_fig12` hands each
    point its own ``eps_r``, so one compile serves every grid.
    """
    return ScenarioSpec(
        name=f"fig12-{configuration.label}",
        description=(
            f"Figure 12 {configuration.label} routed onto "
            f"{configuration.device_name}"
        ),
        qram_width=configuration.m,
        sqc_width=configuration.k,
        mapping="device",
        device=configuration.device_name,
        error_reduction_factors=DEFAULT_REDUCTION_FACTORS,
    )


def run_fig12(
    configurations: tuple[HardwareConfiguration, ...] = DEFAULT_CONFIGURATIONS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (configuration, eps_r) pair, plus SWAP counts."""
    # Imported here: repro.scenarios.compile imports repro.experiments.common,
    # so a module-level import would be circular.
    from repro.scenarios.compile import compile_scenario
    from repro.scenarios.run import scenario_shard

    seed_value = resolve_seed(seed)
    specs = {
        configuration: configuration_spec(configuration)
        for configuration in configurations
    }
    points = [
        (configuration, factor)
        for configuration in configurations
        for factor in reduction_factors
    ]
    bundles = [
        (specs[configuration], factor, seed_value) for configuration, factor in points
    ]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    merged = runner.map_shards(scenario_shard, bundles, shots=shots, seed=seed_value)
    records: list[dict[str, object]] = []
    for (configuration, factor), result in zip(points, merged):
        compiled = compile_scenario(specs[configuration], seed_value)
        records.append(
            {
                "configuration": configuration.label,
                "m": configuration.m,
                "k": configuration.k,
                "device": compiled.device.name,
                "extra_swaps": compiled.extra_swaps,
                "error_reduction_factor": factor,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
            }
        )
    return records


def fig12_report(records: list[dict[str, object]]) -> str:
    """Human-readable Figure 12 series of ``records`` (from :func:`run_fig12`)."""
    if not records:
        return ""
    labels = axis(records, "configuration")
    swaps = {
        record["configuration"]: record["extra_swaps"] for record in records
    }
    headers = ["eps_r"] + [f"{label} (SWAP={swaps[label]})" for label in labels]
    rows = []
    for factor in axis(records, "error_reduction_factor"):
        row: list[object] = [factor]
        for label in labels:
            entry = next(
                r
                for r in records
                if r["configuration"] == label
                and r["error_reduction_factor"] == factor
            )
            row.append(entry["fidelity"])
        rows.append(row)
    title = f"Figure 12 reproduction (device noise, shots={records[0]['shots']})"
    return title + "\n" + format_table(headers, rows)
