"""Fused entanglement-swapping scenarios: the branching tentpole end-to-end.

``htree-teleport-fused`` replaces every sequential hop chain of the
executed-teleportation expansion with a constant-depth entanglement-swapping
link (Bell pairs prepared in one layer, one layer of Bell-state
measurements, Pauli-frame corrections), which exercises bounded path
branching through the whole stack.  The acceptance properties:

* the fused circuit genuinely branches (tape branch level >= 1) and stays
  within the default branch budget;
* at zero noise the fused links reproduce the analytic constant-depth model
  exactly (every shot fidelity 1.0, like ``htree-teleport-m3``);
* the constant-depth claim is structural: the fused schedule is never
  deeper than the sequential-hop schedule, and on deeper trees (longer
  arms) it is strictly shallower with strictly less gate-idle slack --
  which is what makes fused links *beat* the executed hops under idle
  dephasing (gated quantitatively in ``benchmarks/bench_fused_links.py``);
* records are bit-identical across worker counts -- branch doubling and
  static collapse must not perturb the ShotSeeds sharding contract.
"""

import numpy as np
import pytest

from repro.circuit.ir import MAX_BRANCHES, compile_circuit
from repro.circuit.scheduling import idle_slack
from repro.scenarios import available_scenarios, get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario
from repro.sim import FeynmanPathSimulator
from repro.sim.noise import NoiselessModel
from repro.sim.seeding import ShotSeeds

SEED = 7


@pytest.fixture(scope="module")
def fused():
    return compile_scenario(get_scenario("htree-teleport-fused"), SEED)


@pytest.fixture(scope="module")
def executed():
    return compile_scenario(get_scenario("htree-teleport-executed"), SEED)


@pytest.fixture(scope="module")
def analytic():
    return compile_scenario(get_scenario("htree-teleport-m3"), SEED)


def _gate_idle_total(circuit) -> int:
    slack = idle_slack(circuit)
    return sum(layers for layer in slack.gate_idle for (_, layers) in layer)


class TestCompile:
    def test_builtins_registered(self):
        names = available_scenarios()
        assert "htree-teleport-fused" in names
        assert "htree-teleport-fused-idle" in names

    def test_fused_circuit_branches_within_budget(self, fused):
        tape = compile_circuit(fused.circuit)
        assert tape.max_branch_level >= 1
        assert tape.max_branch_level <= MAX_BRANCHES

    def test_same_link_budget_as_sequential_hops(self, fused, executed):
        """Fusion rearranges the hops in time, it does not add link work."""
        assert fused.executed_link_operations == executed.executed_link_operations
        assert fused.measurements == executed.measurements
        assert fused.extra_swaps == 0

    def test_constant_depth_is_structural(self, fused, executed):
        """The fused schedule is never deeper than the sequential one."""
        assert fused.executed_depth <= executed.executed_depth

    @pytest.mark.slow
    def test_deeper_trees_fuse_strictly_shallower(self):
        """Longer arms -> longer hop chains -> strictly less depth and idle.

        At m=3 the arms are too short for fusion to pay; at m=5 the
        constant-depth links are strictly shallower *and* leave the payload
        qubits strictly less gate-idle slack -- the structural source of the
        idle-dephasing fidelity advantage the gated benchmark measures.
        """
        fused5 = compile_scenario(
            get_scenario("htree-teleport-fused").variant(
                "fused-depth-probe-m5", "depth probe", qram_width=5
            ),
            SEED,
        )
        executed5 = compile_scenario(
            get_scenario("htree-teleport-executed").variant(
                "executed-depth-probe-m5", "depth probe", qram_width=5
            ),
            SEED,
        )
        assert fused5.executed_depth < executed5.executed_depth
        assert _gate_idle_total(fused5.circuit) < _gate_idle_total(
            executed5.circuit
        )


class TestZeroNoiseExactness:
    def test_every_shot_fidelity_is_exactly_one(self, fused):
        result = FeynmanPathSimulator().query_fidelities(
            fused.circuit,
            fused.input_state,
            NoiselessModel(),
            16,
            keep_qubits=list(fused.keep_qubits),
            ideal_output=fused.ideal_output,
            rng=ShotSeeds(seed=SEED),
        )
        assert result.fidelities == pytest.approx(np.ones(16))

    def test_matches_analytic_at_zero_noise(self, fused, analytic):
        for compiled in (fused, analytic):
            result = FeynmanPathSimulator().query_fidelities(
                compiled.circuit,
                compiled.input_state,
                NoiselessModel(),
                8,
                keep_qubits=list(compiled.keep_qubits),
                ideal_output=compiled.ideal_output,
                rng=ShotSeeds(seed=SEED),
            )
            assert result.mean_fidelity == pytest.approx(1.0)


class TestShardedRunner:
    def test_worker_count_invariance(self):
        """Branch doubling + static collapse keep sharded records identical."""
        serial = run_scenario("htree-teleport-fused", shots=48, seed=SEED)
        sharded = run_scenario(
            "htree-teleport-fused", shots=48, seed=SEED, workers=3, shard_size=7
        )
        assert serial == sharded

    def test_idle_variant_runs_and_reports(self):
        records = run_scenario("htree-teleport-fused-idle", shots=16, seed=SEED)
        assert records[0]["idle_error"] > 0
        assert all(0.0 <= r["fidelity"] <= 1.0 for r in records)
