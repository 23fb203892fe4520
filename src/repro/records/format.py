"""The ``.rrec`` packed binary record format: layout constants and schema.

A ``.rrec`` file is the struct-packed, versioned binary serialization of a
list of :class:`~repro.scenarios.record.ScenarioRecord` rows -- the format
the result cache, the scenario CLI export and the HTTP artefact route
share.

File layout (all integers little-endian)::

    offset 0   magic            4s   b"RREC"
           4   format_version   u16  RECORD_FORMAT_VERSION (container layout)
           6   schema_version   u16  RECORD_SCHEMA_VERSION (field semantics)
           8   field_count      u16
          10   reserved         u16  always 0
          12   row_count        u64
          20   tag              u16 len, then utf-8 bytes (application label;
                                the result cache stamps the run fingerprint
                                here so a renamed artefact can never be
                                served under another address)
           .   field table      field_count x (u8 name_len, name utf-8,
                                               u8 type_code)
           .   rows             row_count x (8 * field_count) bytes
           .   string table     u32 count, then count x (u32 len, utf-8)
           .   footer           u32 CRC-32 over every preceding byte

Every field is exactly eight bytes wide: ``int`` fields are signed 64-bit,
``float`` fields are IEEE-754 doubles (NaN payloads included, bit-exact),
and ``str`` fields hold a 64-bit index into the file's string-interning
table, so the categorical columns (scenario, engine, router, ...) cost one
integer per row no matter how long the names are.  A row block is therefore
a dense ``(row_count, field_count)`` int64 matrix, which the reader views
in place with one ``np.frombuffer``.

Versioning/CRC contract:

* ``RECORD_FORMAT_VERSION`` names the *container* layout above; any change
  to it bumps the version and old files read as
  :class:`RecordFormatError`, never as garbage rows.
* ``schema_version`` is :data:`repro.scenarios.record.RECORD_SCHEMA_VERSION`
  at write time; a mismatch on read (or a field table that differs from the
  current dataclass) is a typed error, which the result cache treats as a
  clean miss.
* The trailing CRC-32 covers the whole file, so *any* corruption --
  truncated tail, bit flip, foreign bytes -- surfaces as
  :class:`RecordFormatError` before a single row is decoded.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from functools import cache

from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord

#: First four bytes of every ``.rrec`` file.
MAGIC = b"RREC"

#: Version of the container layout documented above.  Bump on any change to
#: the header, field-table, row or string-table encoding.
RECORD_FORMAT_VERSION = 1

#: Fixed-size header preceding the field table.
HEADER_STRUCT = struct.Struct("<4sHHHHQ")

#: Field type codes used in the on-disk field table.
TYPE_INT = 0
TYPE_FLOAT = 1
TYPE_STR = 2

#: Python annotation -> on-disk type code (the record dataclass uses
#: ``from __future__ import annotations``, so ``field.type`` is a string).
_TYPE_CODES = {"int": TYPE_INT, "float": TYPE_FLOAT, "str": TYPE_STR}

#: Bytes per packed field (int64 / float64 / string-intern index).
FIELD_WIDTH = 8


class RecordFormatError(ValueError):
    """A ``.rrec`` file (or record list) violates the binary format contract.

    Raised for *every* malformed input -- truncated or zero-length files,
    bad magic, unknown format or schema versions, field tables that drift
    from the current :class:`~repro.scenarios.record.ScenarioRecord`
    schema, CRC mismatches, out-of-range intern indices, and records whose
    values cannot be packed (non-int64 integers, wrong schema stamp).  The
    result cache maps it to a miss; no caller ever sees a garbage record.
    """


@cache
def schema_fields() -> tuple[tuple[str, int], ...]:
    """The current record schema as ``(field_name, type_code)`` pairs.

    Derived from the :class:`~repro.scenarios.record.ScenarioRecord`
    dataclass in declaration order, so the binary field table can never
    drift from the JSON schema it mirrors.  Computed once per process: the
    dataclass cannot change after import.
    """
    table = []
    for field in fields(ScenarioRecord):
        try:
            code = _TYPE_CODES[field.type]
        except KeyError:  # pragma: no cover - schema-evolution guard
            raise RecordFormatError(
                f"record field {field.name!r} has unpackable type {field.type!r}"
            ) from None
        table.append((field.name, code))
    return tuple(table)


@cache
def encode_field_table() -> bytes:
    """Serialize :func:`schema_fields` into the on-disk field-table bytes.

    A valid file's field table is exactly these bytes, so the reader
    validates it with one slice comparison.
    """
    chunks = []
    for name, code in schema_fields():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<B", len(encoded)) + encoded + struct.pack("<B", code))
    return b"".join(chunks)


def encode_header(row_count: int, tag: str = "") -> bytes:
    """Fixed header, tag and field table for a file of ``row_count`` rows."""
    table = schema_fields()
    encoded_tag = tag.encode("utf-8")
    if len(encoded_tag) > 0xFFFF:
        raise RecordFormatError(f"tag is {len(encoded_tag)} bytes, max 65535")
    return (
        HEADER_STRUCT.pack(
            MAGIC,
            RECORD_FORMAT_VERSION,
            RECORD_SCHEMA_VERSION,
            len(table),
            0,
            row_count,
        )
        + struct.pack("<H", len(encoded_tag))
        + encoded_tag
        + encode_field_table()
    )


@cache
def row_struct() -> struct.Struct:
    """The packer for one row: ``q`` per int/str field, ``d`` per float."""
    codes = "".join(
        "d" if code == TYPE_FLOAT else "q" for _, code in schema_fields()
    )
    return struct.Struct("<" + codes)
