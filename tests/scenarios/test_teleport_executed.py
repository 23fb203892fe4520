"""Executed-teleportation scenarios: the acceptance criteria of the PR.

* ``htree-teleport-executed`` compiles through the scenario registry, runs
  through the sharded runner with worker-count-invariant records;
* at zero noise the executed links reproduce the analytic model exactly
  (every shot fidelity is exactly 1.0, like the analytic circuit's);
* at finite noise the executed sweep agrees with the analytic
  ``htree-teleport-m3`` sweep within Monte-Carlo error at every point;
* the ``-idle`` ablation exposes the executed links' real depth cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import available_scenarios, get_scenario, run_scenario
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import scenario_report
from repro.sim import FeynmanPathSimulator
from repro.sim.noise import NoiselessModel
from repro.sim.seeding import ShotSeeds

SEED = 7
SHOTS = 200


@pytest.fixture(scope="module")
def executed():
    return compile_scenario(get_scenario("htree-teleport-executed"), SEED)


@pytest.fixture(scope="module")
def analytic():
    return compile_scenario(get_scenario("htree-teleport-m3"), SEED)


class TestCompile:
    def test_builtins_registered(self):
        names = available_scenarios()
        assert "htree-teleport-executed" in names
        assert "htree-teleport-executed-idle" in names

    def test_compiled_structure(self, executed, analytic):
        assert executed.extra_swaps == 0
        assert executed.link_sites == ()
        assert executed.executed_link_operations > 0
        assert executed.measurements > 0
        assert executed.circuit.num_clbits == executed.measurements
        # Same logical workload as the analytic variant.
        assert executed.logical_gates == analytic.logical_gates
        assert executed.keep_qubits == analytic.keep_qubits
        # The expanded circuit really contains the primitives.
        gates = executed.circuit.gates
        assert any(instr.is_measurement for instr in gates)
        assert any(instr.is_frame for instr in gates)
        assert executed.executed_gates > analytic.executed_gates

    def test_link_operation_counts_match_analytic_where_exact(
        self, executed, analytic
    ):
        """Executed hop count is the analytic 2(d-1) total minus the ladder
        CXs that double as the gate, plus nothing for bounces' savings --
        i.e. strictly positive and bounded by the analytic budget."""
        assert 0 < executed.executed_link_operations <= analytic.link_operations

    def test_depth_cost_is_real(self, executed, analytic):
        """Hop chains serialise: the executed depth exceeds the analytic
        (constant-depth-modelled) circuit's depth."""
        assert executed.executed_depth > analytic.executed_depth


class TestZeroNoiseExactness:
    def test_every_shot_fidelity_is_exactly_one(self, executed):
        result = FeynmanPathSimulator().query_fidelities(
            executed.circuit,
            executed.input_state,
            NoiselessModel(),
            16,
            keep_qubits=list(executed.keep_qubits),
            ideal_output=executed.ideal_output,
            rng=ShotSeeds(seed=SEED),
        )
        assert result.fidelities == pytest.approx(np.ones(16))

    def test_matches_analytic_at_zero_noise(self, executed, analytic):
        for compiled in (executed, analytic):
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


class TestFiniteNoiseAgreement:
    @pytest.mark.slow
    def test_executed_matches_analytic_within_std_error(self):
        """|F_executed - F_analytic| <= 3 combined std errors, every eps."""
        executed_records = run_scenario(
            "htree-teleport-executed", shots=SHOTS, seed=SEED
        )
        analytic_records = run_scenario("htree-teleport-m3", shots=SHOTS, seed=SEED)
        for executed_point, analytic_point in zip(
            executed_records, analytic_records
        ):
            assert (
                executed_point["error_reduction_factor"]
                == analytic_point["error_reduction_factor"]
            )
            combined = float(
                np.hypot(executed_point["std_error"], analytic_point["std_error"])
            )
            difference = abs(
                executed_point["fidelity"] - analytic_point["fidelity"]
            )
            assert difference <= 3.0 * combined, (
                f"eps={executed_point['error_reduction_factor']}: "
                f"executed {executed_point['fidelity']:.4f} vs analytic "
                f"{analytic_point['fidelity']:.4f} "
                f"(3 sigma = {3 * combined:.4f})"
            )

    @pytest.mark.slow
    def test_idle_ablation_sits_below_executed(self):
        """Idle dephasing over the hop chains' depth costs fidelity."""
        plain = run_scenario("htree-teleport-executed", shots=128, seed=SEED)
        idle = run_scenario("htree-teleport-executed-idle", shots=128, seed=SEED)
        assert idle[0]["fidelity"] < plain[0]["fidelity"]
        assert idle[0]["idle_error"] > 0


class TestShardedRunner:
    def test_worker_count_invariance(self):
        serial = run_scenario("htree-teleport-executed", shots=48, seed=SEED)
        sharded = run_scenario(
            "htree-teleport-executed", shots=48, seed=SEED, workers=3, shard_size=7
        )
        assert serial == sharded

    @settings(max_examples=6, deadline=None)
    @given(
        workers=st.integers(2, 4),
        shard_size=st.integers(3, 17),
        seed=st.integers(0, 2**16),
    )
    def test_trajectories_bit_identical_across_worker_counts(
        self, workers, shard_size, seed
    ):
        """Hypothesis: merged records never depend on the sweep split."""
        serial = run_scenario("htree-teleport-executed", shots=24, seed=seed)
        split = run_scenario(
            "htree-teleport-executed",
            shots=24,
            seed=seed,
            workers=workers,
            shard_size=shard_size,
        )
        assert serial == split

    def test_report_shows_measurements(self):
        records = run_scenario("htree-teleport-executed", shots=16, seed=SEED)
        report = scenario_report("htree-teleport-executed", records)
        assert "measurements=" in report
        assert "routing=teleport-executed" in report
