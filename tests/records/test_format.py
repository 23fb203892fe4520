"""The ``.rrec`` container: layout, round trips, encoder/reader contracts."""

import math
import struct
import zlib

import pytest

from repro.records import (
    MAGIC,
    RECORD_FORMAT_VERSION,
    RecordFile,
    RecordFormatError,
    encode_records,
    read_records,
    schema_fields,
    write_records,
)
from repro.records.format import (
    FIELD_WIDTH,
    HEADER_STRUCT,
    TYPE_FLOAT,
    TYPE_INT,
    TYPE_STR,
    encode_field_table,
    encode_header,
    row_struct,
)
from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord
from repro.scenarios.spec import available_scenarios


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


class TestSchema:
    def test_schema_mirrors_the_dataclass(self):
        from dataclasses import fields

        table = schema_fields()
        assert [name for name, _ in table] == [
            field.name for field in fields(ScenarioRecord)
        ]
        codes = {TYPE_INT, TYPE_FLOAT, TYPE_STR}
        assert all(code in codes for _, code in table)

    def test_row_struct_width_is_eight_bytes_per_field(self):
        assert row_struct().size == FIELD_WIDTH * len(schema_fields())

    def test_header_layout(self):
        header = encode_header(7, "label")
        magic, fmt, schema, count, reserved, rows = HEADER_STRUCT.unpack_from(
            header, 0
        )
        assert magic == MAGIC
        assert fmt == RECORD_FORMAT_VERSION
        assert schema == RECORD_SCHEMA_VERSION
        assert count == len(schema_fields())
        assert reserved == 0
        assert rows == 7
        (tag_length,) = struct.unpack_from("<H", header, HEADER_STRUCT.size)
        tag_start = HEADER_STRUCT.size + 2
        assert header[tag_start : tag_start + tag_length] == b"label"

    def test_oversized_tag_rejected(self):
        with pytest.raises(RecordFormatError, match="tag"):
            encode_header(0, "x" * 70000)


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        records = [_record(), _record(fidelity=0.25, m=3)]
        path = write_records(tmp_path / "a.rrec", records)
        assert read_records(path) == records

    def test_empty_file_round_trips_to_empty_list(self, tmp_path):
        path = write_records(tmp_path / "empty.rrec", [])
        assert read_records(path) == []

    def test_nan_floats_round_trip_bit_exact(self, tmp_path):
        records = [_record(fidelity=math.nan, std_error=math.nan)]
        path = write_records(tmp_path / "nan.rrec", records)
        decoded = read_records(path)[0]
        assert math.isnan(decoded.fidelity)
        assert decoded == records[0]

    def test_tag_round_trips(self, tmp_path):
        path = write_records(tmp_path / "t.rrec", [_record()], tag="fp-123")
        record_file = RecordFile(path)
        assert record_file.tag == "fp-123"

    def test_bytes_are_a_pure_function_of_records_and_tag(self, tmp_path):
        records = [_record(), _record(fidelity=0.9)]
        first = write_records(tmp_path / "x.rrec", records, tag="t")
        second = write_records(tmp_path / "y.rrec", records, tag="t")
        assert first.read_bytes() == second.read_bytes()

    def test_mappings_are_validated_through_from_dict(self, tmp_path):
        record = _record()
        path = write_records(tmp_path / "m.rrec", [record.as_dict()])
        assert read_records(path) == [record]

    def test_full_builtin_catalog_round_trips(self, tmp_path):
        """decode(encode(records)) is the identity for every registered
        scenario's sweep records -- the tentpole acceptance pin."""
        from repro.scenarios import run_scenario

        names = available_scenarios()
        assert len(names) >= 18
        records = []
        for name in names:
            records.extend(run_scenario(name, shots=4, workers=1, cache=False))
        path = write_records(tmp_path / "catalog.rrec", records)
        decoded = read_records(path)
        assert decoded == records
        # Bit-exact floats, not merely NaN-aware equality.
        for ours, theirs in zip(decoded, records):
            for name, code in schema_fields():
                if code == TYPE_FLOAT:
                    packed = struct.pack("<d", ours[name])
                    assert packed == struct.pack("<d", theirs[name])


class TestWriter:
    def test_out_of_int64_range_value_rejected(self, tmp_path):
        with pytest.raises(RecordFormatError, match="packed row format"):
            write_records(tmp_path / "w.rrec", [_record(shots=2**63)])

    def test_stale_schema_version_rejected(self, tmp_path):
        record = _record()
        object.__setattr__(record, "schema_version", RECORD_SCHEMA_VERSION + 1)
        with pytest.raises(RecordFormatError, match="schema_version"):
            write_records(tmp_path / "w.rrec", [record])

    def test_invalid_mapping_rejected(self, tmp_path):
        with pytest.raises(RecordFormatError, match="unpackable record"):
            write_records(tmp_path / "w.rrec", [{"surprise": 1}])

    def test_unpackable_record_leaves_no_file(self, tmp_path):
        """The file is encoded in memory first: a record that cannot be
        packed, even after valid ones, fails before ``path`` is created."""
        path = tmp_path / "w.rrec"
        with pytest.raises(RecordFormatError):
            write_records(path, [_record(), _record(shots=2**63)])
        assert not path.exists()

    def test_rewrite_replaces_a_longer_file(self, tmp_path):
        """Writing over an existing file leaves exactly the new encode's
        bytes: nothing of a longer earlier file survives past its end."""
        path = tmp_path / "w.rrec"
        write_records(path, [_record(scenario=f"s{i}") for i in range(6)])
        records = [_record()]
        write_records(path, records)
        fresh = write_records(tmp_path / "fresh.rrec", records)
        assert path.read_bytes() == fresh.read_bytes()
        assert read_records(path) == records


class TestReaderProtocol:
    def _path(self, tmp_path):
        records = [_record(m=i + 1) for i in range(5)]
        return write_records(tmp_path / "seq.rrec", records), records

    def test_sequence_protocol(self, tmp_path):
        path, records = self._path(tmp_path)
        record_file = RecordFile(path)
        assert len(record_file) == 5
        assert record_file[0] == records[0]
        assert record_file[-1] == records[-1]
        assert record_file[1:3] == records[1:3]
        assert list(record_file) == records
        with pytest.raises(IndexError):
            record_file[5]

    def test_tobytes_returns_the_file_bytes(self, tmp_path):
        path, _ = self._path(tmp_path)
        record_file = RecordFile(path)
        assert record_file.tobytes() == path.read_bytes()

    def test_reader_keeps_its_bytes_after_the_file_is_replaced(self, tmp_path):
        """The file is read once on construction: replacing or deleting it
        afterwards changes nothing the reader serves."""
        path, records = self._path(tmp_path)
        original = path.read_bytes()
        record_file = RecordFile(path)
        write_records(path, [_record(scenario="replacement")])
        assert record_file.tobytes() == original
        assert record_file.records() == records
        path.unlink()
        assert record_file[-1] == records[-1]


class TestValidationMessages:
    """Every field-table and intern-index fault keeps its own message."""

    TAG = "t" * 8

    def _blob(self, tmp_path) -> bytes:
        records = [_record(), _record(router="lookahead", scenario="x")]
        return write_records(tmp_path / "v.rrec", records, tag=self.TAG).read_bytes()

    @staticmethod
    def _reject(tmp_path, blob: bytes, message: str) -> None:
        path = tmp_path / "mutant.rrec"
        path.write_bytes(blob)
        with pytest.raises(RecordFormatError, match=message):
            RecordFile(path)

    @staticmethod
    def _with_crc(body: bytes) -> bytes:
        return body + struct.pack("<I", zlib.crc32(body))

    def _table_offset(self) -> int:
        return HEADER_STRUCT.size + 2 + len(self.TAG)

    def test_renamed_field_is_a_schema_mismatch(self, tmp_path):
        blob = bytearray(self._blob(tmp_path))
        blob[self._table_offset() + 1] ^= 0x01  # first field name's first byte
        message = "does not match the current record schema"
        self._reject(tmp_path, bytes(blob), message)

    def test_undecodable_field_name(self, tmp_path):
        blob = bytearray(self._blob(tmp_path))
        blob[self._table_offset() + 1] = 0xFF
        self._reject(tmp_path, bytes(blob), "undecodable field name")

    def test_truncated_field_table(self, tmp_path):
        blob = self._blob(tmp_path)
        truncated = blob[: self._table_offset() + 12]
        self._reject(tmp_path, truncated, "truncated field table")

    def test_extra_field_count_is_a_field_table_fault(self, tmp_path):
        blob = self._blob(tmp_path)
        count = len(schema_fields()) + 1
        mutated = blob[:8] + struct.pack("<H", count) + blob[10:]
        self._reject(tmp_path, mutated, "field table")

    @pytest.mark.parametrize("index", [2**40, -1])
    def test_out_of_range_intern_index_names_its_column(self, tmp_path, index):
        blob = self._blob(tmp_path)
        fields = schema_fields()
        column = [name for name, _ in fields].index("router")
        rows = self._table_offset() + len(encode_field_table())
        offset = rows + FIELD_WIDTH * (len(fields) + column)  # second row
        body = blob[:-4]
        mutated = body[:offset] + struct.pack("<q", index) + body[offset + 8 :]
        self._reject(
            tmp_path,
            self._with_crc(mutated),
            "string column 'router' holds an out-of-range intern index",
        )

    def test_write_records_writes_exactly_the_encoded_bytes(self, tmp_path):
        records = [_record(), _record(fidelity=math.nan)]
        path = write_records(tmp_path / "w.rrec", records, tag=self.TAG)
        assert path.read_bytes() == encode_records(records, tag=self.TAG)
