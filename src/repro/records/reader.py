"""Validating reader for ``.rrec`` packed record files.

:class:`RecordFile` reads the file once, validates *everything* up front --
magic, format and schema versions, the field table against the live
:class:`~repro.scenarios.record.ScenarioRecord` schema, section bounds, the
string-interning table, every intern index, and the trailing CRC-32 -- and
then decodes rows on demand: ``record_file[i]`` materializes one
:class:`~repro.scenarios.record.ScenarioRecord` (the same read-only mapping
protocol every exporter already consumes) straight off the held bytes.

Any violation raises :class:`~repro.records.format.RecordFormatError`
during construction; once a :class:`RecordFile` exists, every row decode is
guaranteed to succeed.
"""

from __future__ import annotations

import struct
import zlib
from functools import cache
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.records.format import (
    FIELD_WIDTH,
    HEADER_STRUCT,
    MAGIC,
    RECORD_FORMAT_VERSION,
    TYPE_FLOAT,
    TYPE_STR,
    RecordFormatError,
    encode_field_table,
    schema_fields,
)
from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord

_U32 = struct.Struct("<I")


@cache
def _string_columns() -> np.ndarray:
    """Row-block column indices of the schema's ``str`` fields, in order."""
    codes = np.array([code for _, code in schema_fields()])
    columns = np.flatnonzero(codes == TYPE_STR)
    columns.setflags(write=False)
    return columns


class RecordFile:
    """A validated ``.rrec`` file of scenario records, held as bytes.

    Sequence protocol: ``len(rf)``, ``rf[i]`` (negative indices and slices
    included), iteration.  The file is read and closed on construction;
    :attr:`strings` is its interning table and :meth:`tobytes` its exact
    bytes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fields = schema_fields()
        try:
            self._data = self.path.read_bytes()
        except OSError as exc:
            raise RecordFormatError(f"cannot open {self.path}: {exc}") from exc
        self._parse()

    # ------------------------------------------------------------ validation
    def _fail(self, reason: str) -> RecordFormatError:
        return RecordFormatError(f"{self.path}: {reason}")

    def _parse(self) -> None:
        data = self._data
        size = len(data)
        if size < HEADER_STRUCT.size + _U32.size + _U32.size:
            raise self._fail(f"truncated: {size} bytes is smaller than any valid file")
        magic, fmt_version, schema_version, field_count, reserved, row_count = (
            HEADER_STRUCT.unpack_from(data, 0)
        )
        if magic != MAGIC:
            raise self._fail(f"bad magic {magic!r}, expected {MAGIC!r}")
        if fmt_version != RECORD_FORMAT_VERSION:
            raise self._fail(
                f"format version {fmt_version} != supported {RECORD_FORMAT_VERSION}"
            )
        if schema_version != RECORD_SCHEMA_VERSION:
            raise self._fail(
                f"record schema version {schema_version} != "
                f"current {RECORD_SCHEMA_VERSION}"
            )
        if reserved != 0:
            raise self._fail(f"reserved header word is {reserved}, expected 0")
        offset = HEADER_STRUCT.size
        if offset + 2 > size:
            raise self._fail("truncated tag")
        (tag_length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + tag_length > size:
            raise self._fail("truncated tag")
        try:
            self.tag = data[offset : offset + tag_length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._fail(f"undecodable tag: {exc}") from None
        offset += tag_length
        expected = encode_field_table()
        if field_count == len(self._fields) and (
            data[offset : offset + len(expected)] == expected
        ):
            offset += len(expected)
        else:
            raise self._field_table_error(field_count, offset)
        row_bytes = row_count * FIELD_WIDTH * field_count
        rows_offset = offset
        offset += row_bytes
        if offset + _U32.size + _U32.size > size:
            raise self._fail("truncated row block")
        (string_count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        strings: list[str] = []
        for _ in range(string_count):
            if offset + _U32.size > size:
                raise self._fail("truncated string table")
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            if offset + length + _U32.size > size:
                raise self._fail("truncated string table")
            try:
                strings.append(data[offset : offset + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise self._fail(f"undecodable interned string: {exc}") from None
            offset += length
        if offset + _U32.size != size:
            raise self._fail(
                f"{size - offset - _U32.size} bytes of trailing garbage after "
                "the string table"
            )
        (stored_crc,) = _U32.unpack_from(data, offset)
        computed = zlib.crc32(memoryview(data)[:offset]) & 0xFFFFFFFF
        if computed != stored_crc:
            raise self._fail(
                f"CRC mismatch: stored {stored_crc:#010x}, "
                f"computed {computed:#010x}"
            )
        self.strings: tuple[str, ...] = tuple(strings)
        count = row_count * field_count
        ints = np.frombuffer(data, dtype="<i8", count=count, offset=rows_offset)
        self._ints = ints.reshape(row_count, field_count)
        self._floats = ints.view("<f8").reshape(row_count, field_count)
        # One pass over every string column: a negative index reads as a
        # huge unsigned one, so a single bound catches both ends.
        columns = _string_columns()
        if row_count and columns.size:
            indices = self._ints[:, columns].view("<u8")
            bad = (indices >= len(strings)).any(axis=0)
            if bad.any():
                name = self._fields[columns[bad.argmax()]][0]
                raise self._fail(
                    f"string column {name!r} holds an out-of-range intern index"
                )

    def _field_table_error(self, field_count: int, offset: int) -> RecordFormatError:
        """Name what is wrong with a field table that is not the expected bytes.

        A table that decodes to the current schema has exactly the bytes of
        :func:`~repro.records.format.encode_field_table`, so every table
        that reaches this decode is truncated, undecodable or mismatched.
        """
        data = self._data
        size = len(data)
        table: list[tuple[str, int]] = []
        for _ in range(field_count):
            if offset + 1 > size:
                return self._fail("truncated field table")
            name_length = data[offset]
            offset += 1
            if offset + name_length + 1 > size:
                return self._fail("truncated field table")
            try:
                name = data[offset : offset + name_length].decode("utf-8")
            except UnicodeDecodeError as exc:
                return self._fail(f"undecodable field name: {exc}")
            offset += name_length
            table.append((name, data[offset]))
            offset += 1
        return self._fail(
            f"field table {table!r} does not match the current "
            f"record schema {self._fields!r}"
        )

    # -------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return self._ints.shape[0]

    def _decode(self, index: int) -> ScenarioRecord:
        values: dict[str, object] = {}
        for column, (name, code) in enumerate(self._fields):
            if code == TYPE_FLOAT:
                values[name] = float(self._floats[index, column])
            elif code == TYPE_STR:
                values[name] = self.strings[self._ints[index, column]]
            else:
                values[name] = int(self._ints[index, column])
        return ScenarioRecord(**values)

    def __getitem__(
        self, index: int | slice
    ) -> "ScenarioRecord | list[ScenarioRecord]":
        if isinstance(index, slice):
            return [self._decode(i) for i in range(*index.indices(len(self)))]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"record index {index} out of range ({length} rows)")
        return self._decode(index)

    def __iter__(self) -> Iterator[ScenarioRecord]:
        for index in range(len(self)):
            yield self._decode(index)

    def records(self) -> list[ScenarioRecord]:
        """Decode every row into a fresh list (the JSON-parity escape hatch)."""
        return list(self)

    def tobytes(self) -> bytes:
        """The complete validated file bytes.

        This is what the HTTP artefact route serves: the exact bytes the
        writer committed, guaranteed well-formed by construction, with no
        per-record dict ever materialized.
        """
        return self._data


def read_records(path: str | Path) -> list[ScenarioRecord]:
    """Decode a ``.rrec`` file into records (validates, reads, closes)."""
    return RecordFile(path).records()
