"""Differential pins: binary and JSON paths agree, re-encodes are exact.

Three equivalences anchor the record store:

* ``decode(encode(records)) == records`` for arbitrary (hypothesis-drawn)
  records, NaN included -- and agrees with the JSON round trip.
* Any split of a record list, each part encoded and decoded on its own and
  the decoded parts re-encoded together, is *byte*-identical to one encode
  of the whole list.
* A scenario sweep's binary artefact is bit-identical across worker
  counts, and a warm binary-cache hit byte-matches the producing run.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.records import RecordFile, read_records, write_records
from repro.scenarios import run_scenario
from repro.scenarios.record import ScenarioRecord

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=24
)
_counts = st.integers(min_value=0, max_value=2**62)
#: NaN explicitly allowed: an all-rejected postselected point's fidelity is
#: NaN and must survive both serializations.
_floats = st.floats(allow_nan=True, allow_infinity=False, width=64)

#: Arbitrary records within the packable domain (ints fit int64).
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
    kept_fraction=_floats,
)

record_lists = st.lists(records, min_size=0, max_size=12)


@settings(max_examples=100, deadline=None)
@given(record_lists)
def test_binary_round_trip_matches_json_round_trip(tmp_path_factory, batch):
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    path = write_records(tmp_path / "b.rrec", batch)
    via_binary = read_records(path)
    via_json = [ScenarioRecord.from_json(record.to_json()) for record in batch]
    assert via_binary == batch
    assert via_json == batch
    assert via_binary == via_json


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_re_encode_is_byte_identical_to_one_encode(tmp_path_factory, data):
    """For ANY partition (empty parts included), encoding each part, decoding
    it and re-encoding the concatenation gives one encode's bytes.

    Record equality is NaN-aware and cannot tell ``-0.0`` from ``0.0``; the
    byte comparison pins that a decode keeps every float's bits and that
    interning depends on nothing but the concatenated list."""
    tmp_path = tmp_path_factory.mktemp("split")
    batch = data.draw(record_lists)
    part_count = data.draw(st.integers(min_value=1, max_value=5))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(batch)),
                min_size=part_count - 1,
                max_size=part_count - 1,
            )
        )
    )
    bounds = [0, *cuts, len(batch)]
    decoded = []
    for index in range(part_count):
        part = batch[bounds[index] : bounds[index + 1]]
        decoded.extend(
            read_records(write_records(tmp_path / f"part-{index}.rrec", part))
        )
    re_encoded = write_records(tmp_path / "re-encoded.rrec", decoded, tag="t")
    once = write_records(tmp_path / "once.rrec", batch, tag="t")
    assert re_encoded.read_bytes() == once.read_bytes()


class TestSweepEquivalence:
    SCENARIO = "bare-bb-m2"
    SHOTS = 8

    def _run(self, workers, **kwargs):
        return run_scenario(
            self.SCENARIO, shots=self.SHOTS, workers=workers, **kwargs
        )

    def test_artefact_is_bit_identical_for_workers_1_and_4(self, tmp_path):
        serial = self._run(1)
        pooled = self._run(4, shard_size=2)
        assert serial == pooled
        first = write_records(tmp_path / "w1.rrec", serial)
        second = write_records(tmp_path / "w4.rrec", pooled)
        assert first.read_bytes() == second.read_bytes()

    def test_warm_binary_cache_hit_byte_matches_the_producing_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self._run(1, cache=cache)
        fingerprint = cache.fingerprints()[0]
        committed = cache.binary_path_for(fingerprint).read_bytes()
        warm = self._run(4, shard_size=2, cache=cache)
        assert warm == cold
        assert cache.binary_path_for(fingerprint).read_bytes() == committed
        # Re-encoding the warm records reproduces the committed bytes.
        re_encoded = write_records(
            tmp_path / "warm.rrec", warm, tag=fingerprint
        )
        assert re_encoded.read_bytes() == committed

    def test_cache_and_server_serve_the_same_bytes(self, tmp_path):
        from repro.server.app import ScenarioService
        from repro.server.responses import RawResponse

        cache = ResultCache(tmp_path)
        self._run(1, cache=cache)
        fingerprint = cache.fingerprints()[0]
        service = ScenarioService(cache=cache)
        status, raw = service.handle_get(f"/api/v1/results/{fingerprint}.rrec")
        assert status == 200
        assert isinstance(raw, RawResponse)
        assert raw.body == cache.binary_path_for(fingerprint).read_bytes()
        record_file = RecordFile(cache.binary_path_for(fingerprint))
        assert record_file.tobytes() == raw.body


def test_nan_records_agree_across_both_serializations(tmp_path):
    """A postselected all-rejected point (fidelity NaN) survives binary
    bit-exactly and JSON as null, and the two decodes agree."""
    base = read_records(
        write_records(
            tmp_path / "n.rrec",
            [
                ScenarioRecord(
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
                    fidelity=math.nan,
                    std_error=math.nan,
                    kept_fraction=0.0,
                )
            ],
        )
    )[0]
    assert math.isnan(base.fidelity)
    via_json = ScenarioRecord.from_json(base.to_json())
    assert via_json == base
    assert json.loads(base.to_json())["fidelity"] is None
