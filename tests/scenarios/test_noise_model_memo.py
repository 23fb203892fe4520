"""The per-factor noise-model memo on :class:`CompiledScenario`.

Every shot shard of a sweep point asks the process-cached compiled scenario
for its noise model.  The memo makes those shards share one model object
(and so one memoised noise-site table) without changing what the model is,
and without leaking into the bundle's equality.  ``executed_depth``, read
by every record, is computed once per bundle the same way.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuit.ir import compile_circuit
from repro.hardware.noise_model import scheduled_device_noise_model
from repro.circuit.scheduling import circuit_depth
from repro.scenarios import CompiledScenario, compile_scenario, get_scenario
from repro.scenarios import compile as scenario_compile

SEED = 2023


@pytest.fixture(scope="module")
def idle_scenario() -> CompiledScenario:
    return compile_scenario(get_scenario("htree-dual-rail-idle"), SEED)


class TestNoiseModelMemo:
    def test_same_factor_returns_same_object(self, idle_scenario):
        assert idle_scenario.noise_model(10.0) is idle_scenario.noise_model(10.0)

    def test_different_factors_return_different_models(self, idle_scenario):
        low = idle_scenario.noise_model(1.0)
        high = idle_scenario.noise_model(100.0)
        assert low is not high
        assert low != high

    def test_link_noise_scenario_is_memoised_too(self):
        compiled = compile_scenario(get_scenario("htree-teleport-m3"), SEED)
        assert compiled.link_sites
        assert compiled.noise_model(3.0) is compiled.noise_model(3.0)
        assert compiled.noise_model(3.0) is not compiled.noise_model(30.0)

    @pytest.mark.parametrize("name", ["htree-dual-rail-idle", "ideal-m3-idle"])
    @pytest.mark.parametrize("factor", [1.0, 10.0])
    def test_site_table_matches_a_fresh_model(self, name, factor):
        compiled = compile_scenario(get_scenario(name), SEED)
        fresh = scheduled_device_noise_model(
            compiled.device,
            compiled.circuit,
            error_reduction_factor=factor,
            idle_error=compiled.idle_error_rate,
        )
        memoised = compiled.noise_model(factor)
        assert memoised == fresh
        tape = compile_circuit(compiled.circuit)
        cached = tape.noise_sites(memoised)
        rebuilt = tape._build_noise_sites(fresh)
        for column in ("gate_index", "qubit", "group_index"):
            np.testing.assert_array_equal(
                getattr(cached, column), getattr(rebuilt, column)
            )
        assert cached.channels == rebuilt.channels
        for ours, theirs in zip(cached.thresholds, rebuilt.thresholds):
            np.testing.assert_array_equal(ours, theirs)

    def test_equality_ignores_the_memo(self, idle_scenario):
        idle_scenario.noise_model(1.0)
        twin = dataclasses.replace(idle_scenario)
        assert twin._noise_models == {}
        assert idle_scenario._noise_models
        assert twin == idle_scenario

    def test_memo_field_is_out_of_compare_hash_and_repr(self):
        memo = {f.name: f for f in dataclasses.fields(CompiledScenario)}[
            "_noise_models"
        ]
        # The bundle holds an unhashable circuit, so its generated __hash__
        # cannot be called; compare=False with hash=None is what keeps the
        # memo out of that hash (and out of __eq__).
        assert memo.compare is False
        assert memo.hash is None
        assert memo.repr is False
        assert memo.init is False


class TestExecutedDepthMemo:
    def test_two_reads_compute_the_depth_once(self, idle_scenario, monkeypatch):
        calls = []

        def counting(circuit):
            calls.append(circuit)
            return circuit_depth(circuit)

        monkeypatch.setattr(scenario_compile, "circuit_depth", counting)
        fresh = dataclasses.replace(idle_scenario)
        first = fresh.executed_depth
        assert fresh.executed_depth == first == circuit_depth(fresh.circuit)
        assert calls == [fresh.circuit]

    def test_equality_ignores_the_cached_depth(self, idle_scenario):
        fresh = dataclasses.replace(idle_scenario)
        assert "executed_depth" not in vars(fresh)
        assert idle_scenario.executed_depth > 0
        assert fresh == idle_scenario
