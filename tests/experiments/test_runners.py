"""Tests for the per-table / per-figure experiment runners (small parameters)."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import (
    advantage_summary,
    fig8_report,
    fig9_report,
    fig10_report,
    fig11_report,
    fig12_report,
    k_versus_m_decay,
    optimization_savings,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    run_table2,
    table1_report,
    table2_report,
)
from repro.experiments.common import (
    DEFAULT_SEED,
    axis,
    format_table,
    random_memory,
    records_to_rows,
)
from repro.experiments.fig12 import (
    DEFAULT_CONFIGURATIONS,
    HardwareConfiguration,
    configuration_spec,
)
from repro.sim.noise import PauliChannel


class TestCommonHelpers:
    def test_random_memory_is_reproducible(self):
        assert random_memory(4, seed=1).values == random_memory(4, seed=1).values

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.34567], [10, 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_records_to_rows(self):
        records = [{"x": 1, "y": 2}, {"x": 3}]
        assert records_to_rows(records, ["x", "y"]) == [[1, 2], [3, ""]]

    def test_axis_lists_distinct_values_in_first_seen_order(self):
        records = [{"m": 3}, {"m": 1}, {"m": 3}, {"m": 2}]
        assert axis(records, "m") == [3, 1, 2]
        assert axis([], "m") == []

    def test_noise_figures_share_one_shard_worker(self):
        from repro.experiments import common, fig9, fig10, fig11

        for module in (fig9, fig10, fig11):
            assert module.gate_noise_shard is common.gate_noise_shard
        assert common.ERROR_CHANNELS["Z"](0.25) == PauliChannel(p_z=0.25)
        assert common.ERROR_CHANNELS["X"](0.25) == PauliChannel(p_x=0.25)

    def test_shards_of_a_point_share_one_build_and_site_table(self):
        from repro.circuit.ir import compile_circuit
        from repro.experiments import common
        from repro.sweep import SweepRunner

        spec = ("ours", 3, 2, "Z", 1e-2, 11)
        shards = SweepRunner(shard_size=4).shards(16, seed=5, point_index=0)
        for shard in shards:
            assert common.gate_noise_shard(spec, shard).shape == (shard.shots,)
        architecture = common._architecture("ours", 3, 2, 11)
        assert architecture.memory.address_width == 3
        assert architecture.qram_width == 2
        tape = compile_circuit(architecture.compiled_query().circuit)
        assert len(tape._site_cache) == 1


class TestTableRunners:
    def test_table1_records_cover_all_columns(self):
        records = run_table1(m=3, k=1)
        columns = {record["column"] for record in records}
        assert columns == {"RAW", "OPT1", "OPT2", "OPT3", "ALL"}
        assert all(record["measured"] >= 0 for record in records)

    def test_table1_report_contains_metrics(self):
        text = table1_report(run_table1(m=2, k=1))
        assert text.startswith("Table 1 reproduction (m=2, k=1)")
        assert "qubits" in text and "classical_controlled_gates" in text

    def test_optimization_savings_trends(self):
        savings = optimization_savings(m=4, k=2)
        assert savings["qubit_ratio"] < 1.0
        assert savings["depth_ratio"] < 1.0
        assert savings["classical_gate_ratio"] < 1.0

    def test_table2_records_and_report(self):
        records = run_table2([(2, 1)])
        architectures = {record["architecture"] for record in records}
        assert architectures == {"SQC+BB", "SQC+SS", "Ours"}
        assert "Table 2 reproduction (m=2, k=1)" in table2_report(records)

    def test_advantage_summary_favors_ours(self):
        summary = advantage_summary(m=3, k=2)
        assert summary["t_count_vs_bb"] > 1.0
        assert summary["clifford_depth_vs_ss"] > 1.0


class TestFigureRunners:
    def test_fig8_records(self):
        records = run_fig8(widths=(1, 2, 3, 4))
        assert [record["m"] for record in records] == [1, 2, 3, 4]
        assert all(record["topological_minor"] for record in records)
        assert "Figure 8" in fig8_report(records)

    def test_fig8_swap_worse_than_teleport_at_scale(self):
        records = run_fig8(widths=(6,))
        assert records[0]["swap_extra_depth"] > records[0]["teleport_extra_depth"]

    def test_fig9_records_and_report(self):
        records = run_fig9(widths=(1, 2), shots=16, architectures=("ours", "ss"))
        assert len(records) == 2 * 2 * 2
        assert all(0.0 <= record["fidelity"] <= 1.0 for record in records)
        report = fig9_report(records)
        assert "Figure 9" in report and "eps=0.001, shots=16" in report
        assert "ours-X" in report and "bb-" not in report

    def test_fig10_records_include_bound(self):
        records = run_fig10(widths=(2,), reduction_factors=(1.0, 100.0), shots=16)
        assert all("analytic_bound" in record for record in records)
        by_factor = {r["error_reduction_factor"]: r for r in records if r["error"] == "Z"}
        assert by_factor[100.0]["analytic_bound"] >= by_factor[1.0]["analytic_bound"]
        report = fig10_report(records)
        assert "Figure 10" in report and "m=2" in report and "m=1" not in report

    def test_fig11_records_and_decay_summary(self):
        records = run_fig11(
            qram_widths=(1, 2),
            sqc_widths=(0, 1),
            reduction_factors=(1.0,),
            shots=32,
        )
        assert len(records) == 2 * 2 * 2
        decay = k_versus_m_decay(records, error="Z", factor=1.0)
        assert set(decay) == {"average_drop_per_k", "average_drop_per_m"}
        assert "Figure 11" in fig11_report(records)

    def test_fig12_records_and_report(self):
        configurations = (HardwareConfiguration(m=1, k=0, device_name="ibm_perth"),)
        records = run_fig12(configurations, reduction_factors=(1.0, 100.0), shots=20)
        assert len(records) == 2
        assert records[0]["extra_swaps"] == records[1]["extra_swaps"]
        assert records[1]["fidelity"] >= records[0]["fidelity"] - 0.05
        report = fig12_report(records)
        assert "Figure 12" in report and "shots=20" in report
        assert f"m=1,k=0 (SWAP={records[0]['extra_swaps']})" in report

    def test_fig12_empty_factor_grid_is_no_records(self):
        assert run_fig12(DEFAULT_CONFIGURATIONS, ()) == []

    def test_configuration_spec_compiles_like_the_perth_builtin(self):
        from repro.hardware.devices import DEVICES
        from repro.hardware.noise_model import device_noise_model
        from repro.hardware.router import DEFAULT_ROUTER
        from repro.scenarios import compile_scenario, get_scenario

        spec = configuration_spec(HardwareConfiguration(1, 1, "ibm_perth"))
        assert (spec.mapping, spec.device, spec.router) == (
            "device",
            "ibm_perth",
            DEFAULT_ROUTER,
        )
        assert (spec.qram_width, spec.sqc_width) == (1, 1)
        assert spec.idle_error == 0.0 and spec.readout is False
        ours = compile_scenario(spec, DEFAULT_SEED)
        builtin = compile_scenario(get_scenario("perth-m1"), DEFAULT_SEED)
        assert ours.circuit == builtin.circuit
        for state in ("input_state", "ideal_output"):
            mine, theirs = getattr(ours, state), getattr(builtin, state)
            assert np.array_equal(mine.bits, theirs.bits)
            assert np.array_equal(mine.amplitudes, theirs.amplitudes)
        assert ours.keep_qubits == builtin.keep_qubits
        assert ours.extra_swaps == builtin.extra_swaps > 0
        # Zero idle error leaves the plain device gate noise of Appendix A.
        assert ours.noise_model(10.0) == device_noise_model(
            DEVICES["ibm_perth"], error_reduction_factor=10.0
        )


REPORTS = (
    fig8_report,
    fig9_report,
    fig10_report,
    fig11_report,
    fig12_report,
    table1_report,
    table2_report,
)


class TestReports:
    @pytest.mark.parametrize("report", REPORTS, ids=lambda f: f.__name__)
    def test_report_takes_only_records(self, report):
        assert list(inspect.signature(report).parameters) == ["records"]

    @pytest.mark.parametrize("report", REPORTS, ids=lambda f: f.__name__)
    def test_report_of_no_records_is_empty(self, report):
        assert report([]) == ""

    def test_report_of_a_subset_renders_only_its_axes(self):
        records = run_fig10(widths=(1, 2), reduction_factors=(1.0, 10.0), shots=8)
        subset = [
            r
            for r in records
            if r["m"] == 2 and r["error"] == "X" and r["error_reduction_factor"] == 10
        ]
        text = fig10_report(subset)
        assert "right panel" in text and "left panel" not in text
        assert "m=2" in text and "m=1" not in text
        rows = [line.split()[0] for line in text.splitlines()[3:] if line]
        assert rows == ["10"]


@pytest.mark.parametrize(
    "module", ["repro.scenarios", "repro.experiments", "repro.cache"]
)
def test_package_imports_first_in_a_fresh_interpreter(module):
    """``repro.scenarios.compile`` imports ``repro.experiments.common``, and
    Figure 12 compiles through it: neither package may import the other's
    heavy half at module level, whichever is imported first."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
