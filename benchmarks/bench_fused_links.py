"""Fused entanglement-swapping links vs sequential hop chains under idle noise.

The branching tentpole's quantitative acceptance: constant-depth fused
links must *beat* the depth-``d`` sequential hop chains of
``teleport-executed`` routing when idle dephasing is what dominates.  The
workload is the deep-tree regime where fusion pays -- ``qram_width=5``
(arm-length-4 hop chains) with ``idle_error=0.01`` at ``eps_r=10`` -- as
variants of the built-in ``htree-teleport-fused-idle`` /
``htree-teleport-executed-idle`` pair.  Three properties gate:

* **Zero-noise exactness** (always gates): the m=3 fused scenario
  reproduces the analytic constant-depth model exactly -- every shot
  fidelity 1.0.
* **Idle advantage** (always gates): fused fidelity strictly exceeds the
  executed-hop fidelity on the deep-tree idle workload.
* **Structure + magnitude** (gates vs the committed baseline): the
  executed/fused depth and gate-idle-slack ratios (pure functions of the
  compile, machine-independent) and the fidelity advantage with its
  reciprocal (pure function of the seed; the reciprocal turns the
  checker's one-sided floor into a two-sided bracket).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fused_links.py
    PYTHONPATH=src python benchmarks/bench_fused_links.py \
        --json BENCH_fused_links.json
"""

import argparse
import json

import numpy as np

from repro.circuit.scheduling import idle_slack
from repro.experiments.common import format_table
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario
from repro.sim import FeynmanPathSimulator
from repro.sim.noise import NoiselessModel
from repro.sim.seeding import ShotSeeds

SEED = 7
SHOTS = 512
QRAM_WIDTH = 5
IDLE_ERROR = 0.01
FACTOR = 10.0


def _deep_variant(base: str, tag: str):
    return get_scenario(base).variant(
        f"{base}-bench-{tag}",
        "deep-tree idle ablation (fused-links benchmark)",
        qram_width=QRAM_WIDTH,
        idle_error=IDLE_ERROR,
        error_reduction_factors=(FACTOR,),
    )


def _gate_idle_total(circuit) -> int:
    slack = idle_slack(circuit)
    return sum(layers for layer in slack.gate_idle for (_, layers) in layer)


def _zero_noise_exact() -> bool:
    compiled = compile_scenario(get_scenario("htree-teleport-fused"), SEED)
    result = FeynmanPathSimulator().query_fidelities(
        compiled.circuit,
        compiled.input_state,
        NoiselessModel(),
        16,
        keep_qubits=list(compiled.keep_qubits),
        ideal_output=compiled.ideal_output,
        rng=ShotSeeds(seed=SEED),
    )
    return bool(np.allclose(result.fidelities, 1.0))


def bench_fused_deep_tree_serial(benchmark):
    """Serial deep-tree fused sweep: m=5, idle 0.01, eps_r=10, 64 shots."""
    spec = _deep_variant("htree-teleport-fused-idle", "pytest")
    records = benchmark(run_scenario, spec, shots=64, seed=SEED, workers=1)
    assert 0.0 <= records[0]["fidelity"] <= 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=4, help="sweep workers (records invariant)"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write measurements to this path"
    )
    args = parser.parse_args(argv)

    fused_spec = _deep_variant("htree-teleport-fused-idle", "gate")
    executed_spec = _deep_variant("htree-teleport-executed-idle", "gate")
    fused_compiled = compile_scenario(fused_spec, SEED)
    executed_compiled = compile_scenario(executed_spec, SEED)

    depth_ratio = (
        executed_compiled.executed_depth / fused_compiled.executed_depth
    )
    idle_ratio = _gate_idle_total(executed_compiled.circuit) / _gate_idle_total(
        fused_compiled.circuit
    )
    print(
        f"workload: m={QRAM_WIDTH} H-tree, idle_error={IDLE_ERROR}, "
        f"eps_r={FACTOR}, {SHOTS} shots, seed={SEED}"
    )
    print(
        f"depth: fused {fused_compiled.executed_depth} vs executed "
        f"{executed_compiled.executed_depth} (ratio {depth_ratio:.3f}); "
        f"gate-idle slack ratio {idle_ratio:.3f}"
    )

    exact = _zero_noise_exact()
    print(f"m=3 fused zero-noise exact: {exact}")

    fidelities = {}
    for label, spec in (("fused", fused_spec), ("executed", executed_spec)):
        records = run_scenario(
            spec, shots=SHOTS, seed=SEED, workers=args.workers
        )
        fidelities[label] = (records[0]["fidelity"], records[0]["std_error"])
    advantage = fidelities["fused"][0] - fidelities["executed"][0]

    rows = [
        [label, fidelity, std_error]
        for label, (fidelity, std_error) in fidelities.items()
    ]
    print(format_table(["routing", f"fidelity@eps_r={FACTOR}", "std_error"], rows))
    print(f"fused idle-dephasing advantage: {advantage:+.4f}")

    if args.json:
        payload = {
            "benchmark": "fused_links",
            "workload": {
                "qram_width": QRAM_WIDTH,
                "idle_error": IDLE_ERROR,
                "error_reduction_factor": FACTOR,
                "shots": SHOTS,
                "seed": SEED,
            },
            "zero_noise_exact": exact,
            "fidelities": {
                label: {"fidelity": fidelity, "std_error": std_error}
                for label, (fidelity, std_error) in fidelities.items()
            },
            "gates": {
                "depth_ratio_executed_over_fused": depth_ratio,
                "gate_idle_slack_ratio": idle_ratio,
                "fused_advantage_x100": advantage * 100.0,
                "fused_advantage_reciprocal": (
                    1.0 / advantage if advantage > 0 else 0.0
                ),
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not exact:
        print("FAIL: fused links are not exact at zero noise")
        return 1
    if advantage <= 0:
        print(
            "FAIL: fused links do not beat sequential hops under idle "
            f"dephasing (advantage {advantage:+.4f})"
        )
        return 1
    print(f"OK: fused beats executed by {advantage:+.4f} under idle dephasing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
