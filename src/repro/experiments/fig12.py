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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.experiments.common import format_table, random_memory, resolve_seed
from repro.hardware.devices import DEVICES, DeviceModel
from repro.hardware.noise_model import device_noise_model
from repro.hardware.router import DEFAULT_ROUTER, make_router
from repro.qram.virtual_qram import VirtualQRAM
from repro.sim.feynman import FeynmanPathSimulator
from repro.sweep import ShotShard, SweepRunner

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


def route_configuration(
    configuration: HardwareConfiguration, *, seed: int | None = None
):
    """Build and route one configuration; returns (architecture, routed circuit).

    Routes with :data:`~repro.hardware.router.DEFAULT_ROUTER`, the greedy
    stand-in for the paper's SABRE pass.
    """
    device: DeviceModel = DEVICES[configuration.device_name]
    memory = random_memory(configuration.m + configuration.k, seed)
    architecture = VirtualQRAM(memory=memory, qram_width=configuration.m)
    routed = make_router(DEFAULT_ROUTER, device).route(architecture.build_circuit())
    return architecture, routed


@lru_cache(maxsize=16)
def _fig12_bundle(configuration: HardwareConfiguration, seed: int):
    """Route one configuration and precompute everything the shards share.

    Returns ``(routed, physical_input, physical_ideal, keep_qubits)``.
    Routing plus state mapping dominates the small fig12 workloads, so the
    bundle is cached per process: every (configuration, eps_r) shard that
    lands on a worker reuses its build.
    """
    architecture, routed = route_configuration(configuration, seed=seed)
    logical_input = architecture.input_state()
    physical_input = routed.map_state(logical_input, final=False)
    physical_ideal = routed.map_state(
        architecture.ideal_output(logical_input), final=True
    )
    keep = routed.physical_qubits(architecture.kept_qubits(), final=True)
    return routed, physical_input, physical_ideal, keep


def _fig12_shard(spec: tuple, shard: ShotShard) -> np.ndarray:
    """Per-shard fidelities for one (configuration, eps_r) sweep point."""
    configuration, factor, seed = spec
    routed, physical_input, physical_ideal, keep = _fig12_bundle(configuration, seed)
    device = DEVICES[configuration.device_name]
    noise = device_noise_model(device, error_reduction_factor=factor)
    result = FeynmanPathSimulator().query_fidelities(
        routed.circuit,
        physical_input,
        noise,
        shard.shots,
        keep_qubits=keep,
        ideal_output=physical_ideal,
        rng=shard.seeds(),
    )
    return result.fidelities


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
    seed_value = resolve_seed(seed)
    points = [
        (configuration, factor)
        for configuration in configurations
        for factor in reduction_factors
    ]
    specs = [(configuration, factor, seed_value) for configuration, factor in points]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    merged = runner.map_shards(_fig12_shard, specs, shots=shots, seed=seed_value)
    records: list[dict[str, object]] = []
    for (configuration, factor), result in zip(points, merged):
        routed, _, _, _ = _fig12_bundle(configuration, seed_value)
        device = DEVICES[configuration.device_name]
        records.append(
            {
                "configuration": configuration.label,
                "m": configuration.m,
                "k": configuration.k,
                "device": device.name,
                "extra_swaps": routed.swap_count,
                "error_reduction_factor": factor,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
            }
        )
    return records


def fig12_report(
    configurations: tuple[HardwareConfiguration, ...] = DEFAULT_CONFIGURATIONS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    shots: int = DEFAULT_SHOTS,
    seed: int | None = None,
    records: list[dict[str, object]] | None = None,
) -> str:
    """Human-readable Figure 12 series."""
    if records is None:
        records = run_fig12(
            configurations, reduction_factors, shots=shots, seed=seed
        )
    labels = [configuration.label for configuration in configurations]
    swaps = {
        record["configuration"]: record["extra_swaps"] for record in records
    }
    headers = ["eps_r"] + [f"{label} (SWAP={swaps[label]})" for label in labels]
    rows = []
    for factor in reduction_factors:
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
    title = f"Figure 12 reproduction (device noise, shots={shots})"
    return title + "\n" + format_table(headers, rows)
