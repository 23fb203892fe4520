"""``ScenarioRecord``: schema versioning, round trips, mapping duck-typing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import run_scenario
from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=24
)
_counts = st.integers(min_value=0, max_value=10**9)
_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Generate arbitrary (not merely realistic) field values: the round trip
#: must hold for anything the dataclass can carry.
records = st.builds(
    ScenarioRecord,
    scenario=_names,
    architecture=_names,
    m=st.integers(min_value=1, max_value=12),
    k=_counts,
    mapping=_names,
    routing=_names,
    router=_names,
    device=_names,
    num_qubits=_counts,
    logical_gates=_counts,
    executed_gates=_counts,
    extra_swaps=_counts,
    link_operations=_counts,
    measurements=_counts,
    logical_depth=_counts,
    executed_depth=_counts,
    idle_error=_floats,
    readout_error=_floats,
    error_reduction_factor=_floats,
    shots=st.integers(min_value=1, max_value=10**6),
    engine=_names,
    fidelity=_floats,
    std_error=_floats,
    kept_fraction=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    ),
)


@settings(max_examples=200, deadline=None)
@given(records)
def test_json_round_trip_is_identity(record):
    assert ScenarioRecord.from_json(record.to_json()) == record


@settings(max_examples=50, deadline=None)
@given(records)
def test_dict_round_trip_and_mapping_equivalence(record):
    assert ScenarioRecord.from_dict(record.as_dict()) == record
    assert dict(record) == record.as_dict()
    assert json.loads(record.to_json()) == record.as_dict()


class TestMappingProtocol:
    RECORD = ScenarioRecord(
        scenario="s",
        architecture="virtual",
        m=2,
        k=0,
        mapping="none",
        routing="-",
        router="greedy-swap",
        device="reference",
        num_qubits=5,
        logical_gates=10,
        executed_gates=10,
        extra_swaps=0,
        link_operations=0,
        measurements=0,
        logical_depth=4,
        executed_depth=4,
        idle_error=0.0,
        readout_error=0.0,
        error_reduction_factor=1.0,
        shots=16,
        engine="feynman-tape",
        fidelity=0.5,
        std_error=0.01,
    )

    def test_getitem_and_contains(self):
        assert self.RECORD["fidelity"] == 0.5
        assert "scenario" in self.RECORD
        assert "nope" not in self.RECORD

    def test_getitem_raises_keyerror_like_a_dict(self):
        with pytest.raises(KeyError):
            self.RECORD["nope"]
        with pytest.raises(KeyError):
            self.RECORD["__class__"]  # attribute access is not item access
        with pytest.raises(KeyError):
            self.RECORD[0]

    def test_get_with_default(self):
        assert self.RECORD.get("engine") == "feynman-tape"
        assert self.RECORD.get("nope", "fallback") == "fallback"

    def test_iteration_and_length_cover_all_fields(self):
        keys = list(self.RECORD)
        assert len(keys) == len(self.RECORD)
        assert keys == list(self.RECORD.keys())
        assert keys[-1] == "schema_version"
        assert self.RECORD.as_dict() == {k: self.RECORD[k] for k in keys}

    def test_schema_version_defaults_to_current(self):
        assert self.RECORD.schema_version == RECORD_SCHEMA_VERSION
        assert self.RECORD["schema_version"] == RECORD_SCHEMA_VERSION


class TestValidation:
    PAYLOAD = json.loads(TestMappingProtocol.RECORD.to_json())

    def _reject(self, payload, match):
        with pytest.raises(ValueError, match=match):
            ScenarioRecord.from_dict(payload)

    def test_unknown_field_rejected(self):
        self._reject({**self.PAYLOAD, "surprise": 1}, "unknown record fields")

    def test_missing_field_rejected(self):
        payload = dict(self.PAYLOAD)
        del payload["fidelity"]
        self._reject(payload, "missing record fields")

    def test_missing_schema_version_rejected(self):
        """A payload without a version stamp is unverifiable, not current.

        Regression pin: ``from_dict`` used to default a missing
        ``schema_version`` to the current one, silently blessing truncated
        or foreign payloads as schema-compatible.
        """
        payload = dict(self.PAYLOAD)
        del payload["schema_version"]
        self._reject(payload, "missing record fields.*schema_version")

    def test_missing_kept_fraction_rejected(self):
        """v1 payloads (no ``kept_fraction``) cannot masquerade as v2."""
        payload = dict(self.PAYLOAD)
        del payload["kept_fraction"]
        self._reject(payload, "missing record fields.*kept_fraction")

    def test_missing_schema_version_reads_as_cache_miss(self, tmp_path):
        """A stored document whose rows lack the stamp misses, never raises."""
        from repro.cache.store import ResultCache

        cache = ResultCache(tmp_path)
        record = TestMappingProtocol.RECORD
        path = cache.put("ab" * 32, [record])
        # Drop the binary artefact so the JSON document is the only backend.
        cache.binary_path_for("ab" * 32).unlink()
        document = json.loads(path.read_text(encoding="utf-8"))
        for row in document["records"]:
            del row["schema_version"]
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get("ab" * 32) is None

    def test_stale_schema_version_rejected(self):
        self._reject(
            {**self.PAYLOAD, "schema_version": RECORD_SCHEMA_VERSION + 1},
            "schema_version",
        )

    def test_non_dict_payload_rejected(self):
        self._reject([1, 2], "must be a dict")


def test_run_scenario_returns_typed_records():
    """The API-redesign acceptance: typed records flow out of real runs."""
    records = run_scenario("ideal-m3", shots=8, seed=3, workers=1)
    assert all(isinstance(record, ScenarioRecord) for record in records)
    assert all(record.schema_version == RECORD_SCHEMA_VERSION for record in records)
    assert all(record.router == "greedy-swap" for record in records)
    round_tripped = [ScenarioRecord.from_json(r.to_json()) for r in records]
    assert round_tripped == records


class TestNaNCanonicalJson:
    """Regression pins for the non-standard ``NaN`` literal ``to_json``
    used to emit (``json.dumps`` default): NaN is now canonically ``null``
    on the wire and NaN again after parsing, end to end."""

    def _nan_record(self):
        import math

        return ScenarioRecord(
            **{
                **TestMappingProtocol.RECORD.as_dict(),
                "fidelity": math.nan,
                "std_error": math.nan,
                "kept_fraction": 0.0,
            }
        )

    def test_to_json_emits_null_not_nan_literal(self):
        import math

        record = self._nan_record()
        text = record.to_json()
        assert "NaN" not in text
        payload = json.loads(text)  # strict parsers accept the document
        assert payload["fidelity"] is None
        back = ScenarioRecord.from_json(text)
        assert math.isnan(back.fidelity)
        assert back == record

    def test_nan_round_trips_through_the_cache_store(self, tmp_path):
        from repro.cache.store import ResultCache

        cache = ResultCache(tmp_path)
        record = self._nan_record()
        path = cache.put("ab" * 32, [record])
        assert "NaN" not in path.read_text(encoding="utf-8")
        assert cache.get("ab" * 32) == [record]
        # The JSON fallback path alone also restores NaN.
        cache.binary_path_for("ab" * 32).unlink()
        assert cache.get("ab" * 32) == [record]

    def test_nan_round_trips_through_the_server_results_route(self, tmp_path):
        from repro.server.app import ScenarioService

        def reject(constant):
            raise AssertionError(f"served body holds a {constant} literal")

        fingerprint = "ab" * 32
        service = ScenarioService(cache=str(tmp_path))
        service.cache.put(fingerprint, [self._nan_record()])
        status, raw = service.handle_get(f"/api/v1/results/{fingerprint}")
        assert status == 200
        # Strict parse: a NaN/Infinity literal in the body fails the test.
        envelope = json.loads(raw.body, parse_constant=reject)
        row = envelope["data"]["records"][0]
        assert row["fidelity"] is None

    def test_nan_aware_equality_and_hash(self):
        first = self._nan_record()
        second = self._nan_record()
        assert first == second
        assert hash(first) == hash(second)
        assert first != TestMappingProtocol.RECORD
        assert first.__eq__(object()) is NotImplemented
