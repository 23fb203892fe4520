"""Figure 10: virtual QRAM fidelity vs error-reduction factor (Sec. 7.3).

The base error rate ``eps = 1e-3`` is divided by an error-reduction factor
``eps_r`` swept over 0.1 ... 1000, for QRAM widths ``m = 1 .. 6`` at ``k = 0``.
The left panel uses the phase-flip (Z) channel, the right panel the bit-flip
(X) channel; the fidelity gap between the two panels -- much better behaviour
under Z-biased noise -- is the paper's headline resilience claim, and curves
for larger ``m`` require proportionally larger ``eps_r`` to saturate.
"""

from __future__ import annotations

from repro.analysis.fidelity import qram_x_fidelity_bound, qram_z_fidelity_bound
from repro.experiments.common import (
    axis,
    format_table,
    gate_noise_shard,
    resolve_seed,
)
from repro.sweep import SweepRunner

DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
DEFAULT_REDUCTION_FACTORS: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_BASE_EPSILON = 1e-3
DEFAULT_SHOTS = 1024

#: The figure's panel caption for each error channel.
_PANELS = {"Z": "left panel: phase flip", "X": "right panel: bit flip"}


def run_fig10(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    reduction_factors: tuple[float, ...] = DEFAULT_REDUCTION_FACTORS,
    *,
    base_epsilon: float = DEFAULT_BASE_EPSILON,
    shots: int = DEFAULT_SHOTS,
    errors: tuple[str, ...] = ("Z", "X"),
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (error, width, reduction factor) triple."""
    seed_value = resolve_seed(seed)
    points = [
        (error_name, m, factor)
        for m in widths
        for error_name in errors
        for factor in reduction_factors
    ]
    specs = [
        ("ours", m, m, error_name, base_epsilon / factor, seed_value)
        for error_name, m, factor in points
    ]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    merged = runner.map_shards(gate_noise_shard, specs, shots=shots, seed=seed_value)
    records: list[dict[str, object]] = []
    for (error_name, m, factor), result in zip(points, merged):
        epsilon = base_epsilon / factor
        bound = (
            qram_z_fidelity_bound(epsilon, m)
            if error_name == "Z"
            else qram_x_fidelity_bound(epsilon, m)
        )
        records.append(
            {
                "error": error_name,
                "m": m,
                "k": 0,
                "error_reduction_factor": factor,
                "epsilon": epsilon,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
                "analytic_bound": bound,
            }
        )
    return records


def fig10_report(records: list[dict[str, object]]) -> str:
    """Human-readable Figure 10 series of ``records`` (from :func:`run_fig10`).

    One table per error channel, one column per width.
    """
    widths = axis(records, "m")
    lines = []
    for error_name in axis(records, "error"):
        lines.append(f"Figure 10 reproduction ({_PANELS[error_name]})")
        headers = ["eps_r"] + [f"m={m}" for m in widths]
        rows = []
        for factor in axis(records, "error_reduction_factor"):
            row: list[object] = [factor]
            for m in widths:
                entry = next(
                    r
                    for r in records
                    if r["error"] == error_name
                    and r["m"] == m
                    and r["error_reduction_factor"] == factor
                )
                row.append(entry["fidelity"])
            rows.append(row)
        lines.append(format_table(headers, rows))
        lines.append("")
    return "\n".join(lines)
