"""``repro.records``: the packed binary scenario-record store.

The versioned ``.rrec`` format (magic, container format version, the live
``RECORD_SCHEMA_VERSION``, a self-describing field table, fixed-width
packed rows with string interning for the categorical columns, and a
whole-file CRC-32) is the binary artefact the result cache, the scenario
CLI and the HTTP ``.rrec`` route share:

* :func:`~repro.records.writer.encode_records` /
  :func:`~repro.records.writer.write_records` -- one-shot encoding to bytes
  or to a file, byte-deterministic for a given record sequence;
* :class:`~repro.records.reader.RecordFile` / :func:`read_records` --
  reads the file once and validates every structural invariant (including
  the CRC) before the first row decodes;
* :class:`~repro.records.format.RecordFormatError` -- the single typed
  error for every malformed input, which the result cache maps to a miss.

Every byte of the format is pinned by the differential and fuzz suites
under ``tests/records/``; ``benchmarks/bench_records.py`` gates the packed
size against JSON.
"""

from repro.records.format import (
    MAGIC,
    RECORD_FORMAT_VERSION,
    RecordFormatError,
    schema_fields,
)
from repro.records.reader import RecordFile, read_records
from repro.records.writer import encode_records, write_records

__all__ = [
    "MAGIC",
    "RECORD_FORMAT_VERSION",
    "RecordFile",
    "RecordFormatError",
    "encode_records",
    "read_records",
    "schema_fields",
    "write_records",
]
