"""Figure 9: query fidelity of Our/BB/SS QRAMs under Z and X errors (Sec. 7.3).

Gate-based Monte-Carlo noise at error rate ``eps = 1e-3``; the fidelity is the
reduced fidelity over the address and bus registers.  The shapes to reproduce:

* virtual QRAM and bucket-brigade decay *polynomially* with the QRAM width
  under Z (phase-flip) errors;
* the virtual QRAM decays much faster (exponentially, following the tree
  size) under X (bit-flip) errors, while the bucket-brigade stays polynomial;
* Select-Swap has no resilience under either channel.

The sweep runs through :class:`~repro.sweep.SweepRunner`: every
``(architecture, error, width)`` triple is one sweep point whose shot loop is
split into deterministic seed-keyed shards, so ``workers``/``shard_size``
change wall-clock time but never the records.
"""

from __future__ import annotations

from repro.experiments.common import (
    axis,
    format_table,
    gate_noise_shard,
    resolve_seed,
)
from repro.sweep import SweepRunner

DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
DEFAULT_EPSILON = 1e-3
DEFAULT_SHOTS = 1024

def run_fig9(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    *,
    epsilon: float = DEFAULT_EPSILON,
    shots: int = DEFAULT_SHOTS,
    architectures: tuple[str, ...] = ("ours", "bb", "ss"),
    errors: tuple[str, ...] = ("Z", "X"),
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
) -> list[dict[str, object]]:
    """Fidelity records for every (architecture, error channel, width) triple."""
    seed_value = resolve_seed(seed)
    specs = [
        (name, m, m, error_name, epsilon, seed_value)
        for m in widths
        for name in architectures
        for error_name in errors
    ]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    merged = runner.map_shards(gate_noise_shard, specs, shots=shots, seed=seed_value)
    records: list[dict[str, object]] = []
    for (name, m, _, error_name, point_epsilon, _), result in zip(specs, merged):
        records.append(
            {
                "architecture": name,
                "error": error_name,
                "m": m,
                "epsilon": point_epsilon,
                "shots": shots,
                "fidelity": result.mean_fidelity,
                "std_error": result.std_error,
            }
        )
    return records


def fig9_report(records: list[dict[str, object]]) -> str:
    """Human-readable Figure 9 series of ``records`` (from :func:`run_fig9`).

    One column per architecture/error pair, one row per width.
    """
    if not records:
        return ""
    series = sorted({(r["architecture"], r["error"]) for r in records})
    headers = ["m"] + [f"{arch}-{err}" for arch, err in series]
    rows = []
    for m in axis(records, "m"):
        row: list[object] = [m]
        for arch, err in series:
            entry = next(
                r
                for r in records
                if r["m"] == m and r["architecture"] == arch and r["error"] == err
            )
            row.append(entry["fidelity"])
        rows.append(row)
    first = records[0]
    title = (
        "Figure 9 reproduction (fidelity vs QRAM width, "
        f"eps={first['epsilon']}, shots={first['shots']})"
    )
    return title + "\n" + format_table(headers, rows)
