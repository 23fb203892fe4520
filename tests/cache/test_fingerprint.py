"""The fingerprint contract: canonical, versioned, input-sensitive.

A fingerprint must change when -- and only when -- an input that can change
the run's records changes: any spec field, the seed, the shot count, the
router, the engine stamp, or either schema version.
"""

from dataclasses import replace

from repro.cache import fingerprint as fp_module
from repro.cache.fingerprint import (
    canonical_run_payload,
    canonical_spec,
    run_fingerprint,
)
from repro.hardware.router import available_routers
from repro.scenarios import ScenarioSpec, get_scenario, iter_scenarios

SPEC = ScenarioSpec(
    name="fp-spec",
    description="fingerprint test spec",
    qram_width=2,
    router="greedy-swap",
)


def _fp(spec=SPEC, seed=7, shots=16):
    return run_fingerprint(spec, seed=seed, shots=shots)


def test_fingerprint_is_stable_hex():
    first = _fp()
    assert first == _fp()
    assert len(first) == 64
    assert set(first) <= set("0123456789abcdef")


def test_fingerprint_depends_on_every_run_input():
    base = _fp()
    assert _fp(seed=8) != base
    assert _fp(shots=17) != base
    assert _fp(spec=replace(SPEC, router="lookahead")) != base
    assert _fp(spec=replace(SPEC, qram_width=3)) != base
    assert _fp(spec=replace(SPEC, idle_error=None)) != base
    assert (
        _fp(spec=replace(SPEC, error_reduction_factors=(1.0, 10.0))) != base
    )


def test_fingerprint_ignores_nothing_but_is_name_sensitive():
    """Even the registry name participates: records carry it."""
    renamed = SPEC.variant("fp-spec-2", SPEC.description)
    assert _fp(spec=renamed) != _fp()


def test_schema_versions_are_mixed_in(monkeypatch):
    base = _fp()
    monkeypatch.setattr(fp_module, "CACHE_SCHEMA_VERSION", 999)
    bumped_cache = _fp()
    assert bumped_cache != base
    monkeypatch.setattr(fp_module, "RECORD_SCHEMA_VERSION", 999)
    assert _fp() != bumped_cache


def test_engine_stamp_is_mixed_in(monkeypatch):
    """The fixed engine name is hashed, so committed fingerprints keep it."""
    base = _fp()
    monkeypatch.setattr(fp_module, "ENGINE_NAME", "another-engine")
    assert _fp() != base


def test_canonical_spec_is_json_safe():
    payload = canonical_spec(get_scenario("htree-swap-m3"))
    assert payload["name"] == "htree-swap-m3"
    assert payload["error_reduction_factors"] == [1.0, 10.0, 100.0]
    assert all(
        isinstance(value, (str, int, float, bool, list, type(None)))
        for value in payload.values()
    )


def test_canonical_payload_names_resolved_inputs():
    payload = canonical_run_payload(SPEC, seed=7, shots=16)
    assert payload["seed"] == 7
    assert payload["shots"] == 16
    assert payload["engine"] == "feynman-tape"
    assert payload["spec"]["router"] == "greedy-swap"
    assert "cache_schema_version" in payload
    assert "record_schema_version" in payload


def test_every_builtin_names_a_registered_router():
    """A spec always names its router: no builtin leaves it to a default."""
    routers = set(available_routers())
    for spec in iter_scenarios():
        assert canonical_spec(spec)["router"] in routers, spec.name
