"""One-shot encoder for ``.rrec`` packed binary record files.

:func:`encode_records` packs the whole file in memory -- header with the
real row count, rows, string-interning table, CRC-32 over those bytes -- and
:func:`write_records` writes those bytes with one call.  A file holds one
scenario's records (or, for the CLI's ``scenario_sweep.rrec``, every
requested scenario's), so the bytes are never more than a few kilobytes.

Writes are *not* atomic against concurrent readers; callers that need that
(the result cache) write to a temp name and ``os.replace`` into place.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterable, Mapping

from repro.records.format import (
    TYPE_STR,
    RecordFormatError,
    encode_header,
    row_struct,
    schema_fields,
)
from repro.scenarios.record import RECORD_SCHEMA_VERSION, ScenarioRecord


def _checked(record: ScenarioRecord | Mapping[str, object]) -> ScenarioRecord:
    """``record`` as a current-schema :class:`ScenarioRecord`, or raise.

    Plain mappings are validated through
    :meth:`~repro.scenarios.record.ScenarioRecord.from_dict`; the header's
    schema stamp must be truthful for every row it covers.
    """
    if not isinstance(record, ScenarioRecord):
        try:
            record = ScenarioRecord.from_dict(dict(record))
        except (ValueError, TypeError) as exc:
            raise RecordFormatError(f"unpackable record: {exc}") from exc
    if record.schema_version != RECORD_SCHEMA_VERSION:
        raise RecordFormatError(
            f"record schema_version {record.schema_version!r} != "
            f"current {RECORD_SCHEMA_VERSION}"
        )
    return record


def encode_records(
    records: Iterable[ScenarioRecord | Mapping[str, object]],
    *,
    tag: str = "",
) -> bytes:
    """The complete ``.rrec`` file bytes for ``records``.

    The empty list is legal (a zero-row file round-trips to an empty list);
    the bytes are a pure function of ``(records, tag)``, so two processes
    encoding the same records produce byte-identical files -- the property
    the cache's content addressing and the CI artefact diffs rely on.
    ``tag`` is the header's free-form application label (the cache stamps
    the run fingerprint there).  Any value the format cannot represent (an
    integer outside int64, a stale ``schema_version``) raises
    :class:`RecordFormatError`.
    """
    fields = schema_fields()
    packer = row_struct()
    strings: dict[str, int] = {}
    rows = []
    for record in records:
        record = _checked(record)
        values = [
            strings.setdefault(getattr(record, name), len(strings))
            if code == TYPE_STR
            else getattr(record, name)
            for name, code in fields
        ]
        try:
            rows.append(packer.pack(*values))
        except struct.error as exc:
            raise RecordFormatError(
                f"record value does not fit the packed row format: {exc}"
            ) from exc
    table = [struct.pack("<I", len(strings))]
    for value in strings:  # dict preserves first-interned order
        encoded = value.encode("utf-8")
        table.append(struct.pack("<I", len(encoded)) + encoded)
    body = encode_header(len(rows), tag) + b"".join(rows) + b"".join(table)
    return body + struct.pack("<I", zlib.crc32(body))


def write_records(
    path: str | Path,
    records: Iterable[ScenarioRecord | Mapping[str, object]],
    *,
    tag: str = "",
) -> Path:
    """Write :func:`encode_records`' bytes for ``records`` to ``path``.

    Encoding finishes before ``path`` is opened, so a record the format
    cannot represent raises :class:`RecordFormatError` and leaves no file.
    """
    path = Path(path)
    path.write_bytes(encode_records(records, tag=tag))
    return path
