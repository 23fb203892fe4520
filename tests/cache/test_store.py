"""The on-disk store: atomic commits, corruption-tolerant reads."""

import json
import os

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, ResultCache, resolve_cache
from repro.cache.store import CACHE_DIR_ENV_VAR, default_cache_dir
from repro.records import RecordFormatError
from repro.scenarios.record import ScenarioRecord

FP = "ab" + "0" * 62
OTHER_FP = "cd" + "1" * 62


def _record(**overrides) -> ScenarioRecord:
    base = dict(
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
    base.update(overrides)
    return ScenarioRecord(**base)


class TestRoundTrip:
    def test_put_then_get_returns_equal_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = [_record(), _record(error_reduction_factor=10.0, fidelity=0.9)]
        path = cache.put(FP, records)
        assert path == cache.path_for(FP)
        assert path.is_file()
        assert cache.get(FP) == records

    def test_layout_shards_by_fingerprint_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.path_for(FP) == tmp_path / FP[:2] / f"{FP}.json"

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(FP) is None
        assert FP not in cache
        assert cache.fingerprints() == []

    def test_fingerprints_lists_committed_documents(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        cache.put(OTHER_FP, [_record()])
        assert cache.fingerprints() == sorted([FP, OTHER_FP])

    def test_put_is_idempotent_and_byte_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        first = cache.path_for(FP).read_bytes()
        cache.put(FP, [_record()])
        assert cache.path_for(FP).read_bytes() == first

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_put_keeps_the_committed_artefacts(self, tmp_path):
        """A record the binary format cannot pack aborts ``put``: the temp
        file is removed and both committed artefacts stay as they were."""
        cache = ResultCache(tmp_path)
        records = [_record()]
        cache.put(FP, records)
        json_bytes = cache.path_for(FP).read_bytes()
        binary_bytes = cache.binary_path_for(FP).read_bytes()
        with pytest.raises(RecordFormatError):
            cache.put(FP, [_record(), _record(shots=2**63)])
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
        assert cache.path_for(FP).read_bytes() == json_bytes
        assert cache.binary_path_for(FP).read_bytes() == binary_bytes
        assert cache.get(FP) == records


class TestCorruptionTolerance:
    def _commit(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        return cache

    def _commit_json_only(self, tmp_path) -> ResultCache:
        """Commit, then drop the binary artefact to isolate the JSON path."""
        cache = self._commit(tmp_path)
        cache.binary_path_for(FP).unlink()
        return cache

    def test_truncated_json_is_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        path = cache.path_for(FP)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.get(FP) is None

    def test_non_json_garbage_is_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        cache.path_for(FP).write_bytes(b"\x00\xff not json")
        assert cache.get(FP) is None

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        payload = json.loads(cache.path_for(FP).read_text())
        payload["schema_version"] = CACHE_SCHEMA_VERSION + 1
        cache.path_for(FP).write_text(json.dumps(payload))
        assert cache.get(FP) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        """A document renamed to another address must not be served."""
        cache = self._commit(tmp_path)
        target = cache.path_for(OTHER_FP)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(FP), target)
        assert cache.get(OTHER_FP) is None

    def test_renamed_binary_artefact_is_a_miss(self, tmp_path):
        """The .rrec tag pins the fingerprint: renaming must not serve it."""
        cache = self._commit(tmp_path)
        target = cache.binary_path_for(OTHER_FP)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.binary_path_for(FP), target)
        assert cache.get(OTHER_FP) is None
        assert cache.get_binary(OTHER_FP) is None
        assert OTHER_FP not in cache

    def test_invalid_record_rows_are_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        payload = json.loads(cache.path_for(FP).read_text())
        payload["records"][0]["surprise"] = 1
        cache.path_for(FP).write_text(json.dumps(payload))
        assert cache.get(FP) is None

    def test_non_dict_document_is_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        cache.path_for(FP).write_text(json.dumps([1, 2, 3]))
        assert cache.get(FP) is None

    def test_records_not_a_list_is_a_miss(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        payload = json.loads(cache.path_for(FP).read_text())
        payload["records"] = {"oops": 1}
        cache.path_for(FP).write_text(json.dumps(payload))
        assert cache.get(FP) is None

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constant_is_a_miss(self, tmp_path, literal):
        """``json.loads`` accepts these literals; strict JSON does not."""
        cache = self._commit_json_only(tmp_path)
        path = cache.path_for(FP)
        text = path.read_text()
        assert '"fidelity": 0.5' in text
        path.write_text(text.replace('"fidelity": 0.5', f'"fidelity": {literal}'))
        assert cache.get_payload(FP) is None
        assert cache.get(FP) is None
        assert cache.get_binary(FP) is None
        assert FP not in cache
        assert cache.fingerprints() == []

    def test_deep_nesting_is_a_miss_not_a_recursion_error(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        depth = 200_000
        cache.path_for(FP).write_text("[" * depth + "]" * depth)
        assert cache.get_payload(FP) is None
        assert cache.get(FP) is None
        assert cache.get_binary(FP) is None
        assert FP not in cache
        assert cache.fingerprints() == []

    def test_corrupt_neighbour_does_not_hide_good_documents(self, tmp_path):
        cache = self._commit_json_only(tmp_path)
        cache.put(OTHER_FP, [_record()])
        cache.path_for(FP).write_text("garbage")
        assert cache.fingerprints() == [OTHER_FP]


class TestBinaryBackend:
    def _records(self):
        return [_record(), _record(error_reduction_factor=10.0, fidelity=0.9)]

    def test_put_writes_both_artefacts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        assert cache.path_for(FP).is_file()
        assert cache.binary_path_for(FP).is_file()
        assert cache.binary_path_for(FP) == tmp_path / FP[:2] / f"{FP}.rrec"

    def test_binary_artefact_is_tagged_with_the_fingerprint(self, tmp_path):
        from repro.records import RecordFile

        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        record_file = RecordFile(cache.binary_path_for(FP))
        assert record_file.tag == FP
        assert record_file.records() == self._records()

    def test_binary_survives_json_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = self._records()
        cache.put(FP, records)
        cache.path_for(FP).write_text("garbage")
        assert cache.get(FP) == records
        assert FP in cache
        assert cache.fingerprints() == [FP]

    def test_corrupt_binary_falls_back_to_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = self._records()
        cache.put(FP, records)
        path = cache.binary_path_for(FP)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # break the CRC footer
        path.write_bytes(bytes(blob))
        assert cache.get(FP) == records

    def test_both_artefacts_corrupt_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        cache.path_for(FP).write_text("garbage")
        cache.binary_path_for(FP).write_bytes(b"\x00" * 64)
        assert cache.get(FP) is None
        assert cache.get_binary(FP) is None
        assert FP not in cache

    def test_get_binary_serves_the_committed_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        assert cache.get_binary(FP) == cache.binary_path_for(FP).read_bytes()

    def test_get_binary_heals_from_the_json_document(self, tmp_path):
        """A pre-binary cache (JSON only) is re-encoded and served."""
        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        expected = cache.binary_path_for(FP).read_bytes()
        cache.binary_path_for(FP).unlink()
        assert cache.get_binary(FP) == expected
        assert cache.binary_path_for(FP).is_file()

    def test_healed_bytes_are_served_without_a_second_parse(
        self, tmp_path, monkeypatch
    ):
        """The heal returns the file it committed; the only ``RecordFile``
        built is the failed primary read of the corrupt artefact."""
        from repro.cache import store
        from repro.records import RecordFile

        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        expected = cache.binary_path_for(FP).read_bytes()
        cache.binary_path_for(FP).write_bytes(b"\x00" * 64)
        opened = []

        class CountingRecordFile(RecordFile):
            def __init__(self, path):
                opened.append(path)
                super().__init__(path)

        monkeypatch.setattr(store, "RecordFile", CountingRecordFile)
        served = cache.get_binary(FP)
        assert served == cache.binary_path_for(FP).read_bytes() == expected
        assert opened == [cache.binary_path_for(FP)]

    def test_heal_returns_the_committed_bytes_without_reading_them_back(
        self, tmp_path, monkeypatch
    ):
        """The only read of the binary path is the failed primary read."""
        from pathlib import Path

        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        expected = cache.binary_path_for(FP).read_bytes()
        cache.binary_path_for(FP).unlink()
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        served = cache.get_binary(FP)
        monkeypatch.undo()
        assert reads.count(cache.binary_path_for(FP)) == 1
        assert served == cache.binary_path_for(FP).read_bytes() == expected

    def test_document_the_binary_format_cannot_hold_is_a_binary_miss(
        self, tmp_path
    ):
        """A JSON row past int64 has no ``.rrec``: a miss, never an error."""
        cache = ResultCache(tmp_path)
        cache.put(FP, self._records())
        cache.binary_path_for(FP).unlink()
        payload = json.loads(cache.path_for(FP).read_text())
        payload["records"][0]["shots"] = 2**70
        cache.path_for(FP).write_text(json.dumps(payload))
        assert cache.get(FP)[0].shots == 2**70
        assert cache.get_binary(FP) is None
        assert not cache.binary_path_for(FP).exists()


class TestCount:
    """``count()`` reads directory entries only and opens no file."""

    def test_equals_fingerprints_on_a_clean_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.count() == len(cache.fingerprints()) == 0
        for index in range(5):
            cache.put(f"{index:02x}" + "e" * 62, [_record(shots=index + 1)])
        cache.put(FP, [_record()])
        assert cache.count() == len(cache.fingerprints()) == 6

    def test_both_artefacts_count_once_and_either_alone_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        assert cache.path_for(FP).is_file() and cache.binary_path_for(FP).is_file()
        assert cache.count() == 1
        cache.put(OTHER_FP, [_record()])
        cache.path_for(OTHER_FP).unlink()
        assert cache.count() == 2
        cache.binary_path_for(FP).unlink()
        assert cache.count() == 2

    def test_ignores_temp_files_and_foreign_names(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        shard = tmp_path / FP[:2]
        (shard / f".{FP[:8]}-k3x9q.tmp").write_bytes(b"partial")
        (shard / f"{FP}.json.tmp").write_bytes(b"partial")
        (shard / f"{'g' * 64}.json").write_text("{}")
        (shard / f"{FP.upper()}.rrec").write_bytes(b"")
        (shard / f"{FP[:-1]}.json").write_text("{}")
        (shard / "notes.txt").write_text("hi")
        (tmp_path / f"{OTHER_FP}.json").write_text("{}")  # not in a shard dir
        (tmp_path / "ef").mkdir()
        (tmp_path / "ef" / f"{OTHER_FP}.json").write_text("{}")  # wrong shard
        assert cache.count() == 1

    def test_counts_a_corrupt_artefact_by_name(self, tmp_path):
        """Corruption reads as a miss where results are read, not here."""
        cache = ResultCache(tmp_path)
        cache.path_for(FP).parent.mkdir(parents=True)
        cache.path_for(FP).write_text("{not json")
        assert cache.count() == 1
        assert cache.fingerprints() == []

    def test_missing_root_counts_zero(self, tmp_path):
        assert ResultCache(tmp_path / "absent").count() == 0
        (tmp_path / "a-file").write_text("x")
        assert ResultCache(tmp_path / "a-file").count() == 0

    def test_empty_cache_stays_truthy(self, tmp_path):
        assert ResultCache(tmp_path / "absent")


class TestResolveCache:
    def test_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert resolve_cache(None) is None

    def test_none_with_env_enables_at_env_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cache = resolve_cache(None)
        assert cache is not None
        assert cache.root == tmp_path
        assert default_cache_dir() == tmp_path

    def test_booleans_force_on_and_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert resolve_cache(False) is None
        assert resolve_cache(True).root == tmp_path

    def test_explicit_path_and_instance_pass_through(self, tmp_path):
        by_path = resolve_cache(tmp_path)
        assert by_path.root == tmp_path
        assert resolve_cache(by_path) is by_path
