"""Scenario specs and the registry: validation, lookup, variants."""

import pytest

from repro.hardware.router import DEFAULT_ROUTER
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    iter_scenarios,
    register_scenario,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec(name="x", description="d")
        assert spec.mapping == "none"
        assert spec.memory_width == spec.qram_width

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            ScenarioSpec(name="x", description="d", architecture="telepathic")

    def test_one_label_table_validates_and_builds(self):
        from repro.scenarios import compile as compile_module
        from repro.scenarios.spec import ARCHITECTURES

        assert not hasattr(compile_module, "_ARCHITECTURE_CLASSES")
        assert tuple(ARCHITECTURES) == ("virtual", "bucket-brigade", "fanout")
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec(name="x", description="d", architecture="telepathic")
        assert "choose from ('virtual', 'bucket-brigade', 'fanout')" in str(
            excinfo.value
        )
        for label, cls in ARCHITECTURES.items():
            spec = ScenarioSpec(name="x", description="d", architecture=label)
            built = compile_module._build_architecture(spec, 3)
            assert type(built) is cls

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            ScenarioSpec(name="x", description="d", mapping="warp")

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="routing"):
            ScenarioSpec(name="x", description="d", routing="tunnel")

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="router"):
            ScenarioSpec(name="x", description="d", router="oracle")

    def test_none_router_rejected(self):
        # There is no session default for None to stand for.
        with pytest.raises(ValueError, match="unknown router None"):
            ScenarioSpec(name="x", description="d", router=None)

    def test_registered_routers_accepted(self):
        for router in ("greedy-swap", "lookahead"):
            spec = ScenarioSpec(name="x", description="d", router=router)
            assert spec.router == router
        assert ScenarioSpec(name="x", description="d").router == DEFAULT_ROUTER

    def test_device_mapping_needs_device(self):
        with pytest.raises(ValueError, match="named device"):
            ScenarioSpec(name="x", description="d", mapping="device")

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            ScenarioSpec(name="x", description="d", device="ibm_atlantis")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScenarioSpec(
                name="x", description="d", error_reduction_factors=()
            )

    def test_non_positive_factor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSpec(
                name="x", description="d", error_reduction_factors=(1.0, 0.0)
            )

    def test_negative_idle_error_rejected(self):
        with pytest.raises(ValueError, match="idle_error"):
            ScenarioSpec(name="x", description="d", idle_error=-0.1)

    def test_memory_width_combines_m_and_k(self):
        spec = ScenarioSpec(name="x", description="d", qram_width=3, sqc_width=2)
        assert spec.memory_width == 5

    def test_variant_overrides_and_renames(self):
        base = ScenarioSpec(name="x", description="d", qram_width=2)
        variant = base.variant("y", "idle flavour", idle_error=None)
        assert variant.name == "y"
        assert variant.idle_error is None
        assert variant.qram_width == 2
        assert base.idle_error == 0.0


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_scenarios()
        assert len(names) >= 6
        for spec in BUILTIN_SCENARIOS:
            assert spec.name in names
            assert get_scenario(spec.name) is spec

    def test_iter_scenarios_sorted(self):
        specs = iter_scenarios()
        assert [spec.name for spec in specs] == available_scenarios()

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        spec = BUILTIN_SCENARIOS[0]
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)

    def test_replace_allows_overwrite_and_restores(self):
        original = BUILTIN_SCENARIOS[0]
        override = original.variant(original.name, "temporary override")
        try:
            register_scenario(override, replace=True)
            assert get_scenario(original.name).description == "temporary override"
        finally:
            register_scenario(original, replace=True)

    def test_mapping_ablation_family_shares_noise_settings(self):
        """The ideal/swap/teleport m=3 family must differ only in mapping."""
        ideal = get_scenario("ideal-m3")
        swap = get_scenario("htree-swap-m3")
        teleport = get_scenario("htree-teleport-m3")
        for mapped in (swap, teleport):
            assert mapped.qram_width == ideal.qram_width
            assert mapped.sqc_width == ideal.sqc_width
            assert mapped.device == ideal.device
            assert mapped.idle_error == ideal.idle_error
            assert (
                mapped.error_reduction_factors == ideal.error_reduction_factors
            )
