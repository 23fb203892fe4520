"""Content-addressed on-disk store for scenario sweep records.

Layout: ``<root>/<fp[:2]>/<fp>.rrec`` + ``<root>/<fp[:2]>/<fp>.json`` --
one packed binary artefact and one JSON document per fingerprint, sharded
by the first hex byte so a hot cache never piles every artefact into a
single directory.  The ``.rrec`` file (see :mod:`repro.records`) is the
primary backend: reads decode it and never parse a JSON record on the
warm path, and its header tag carries the fingerprint so a renamed
artefact can never be served under another address.  The JSON document --
the cache schema version, its own fingerprint, and the record rows in
``ScenarioRecord.json_dict()`` form (strict JSON: NaN encodes as
``null``) -- is kept for compatibility: pre-binary caches still hit, and
the HTTP results route serves the exact committed document.  It does not
re-encode it: :meth:`ResultCache.get_payload` returns the file's bytes
with their parse, and the route splices those bytes into its envelope
(:func:`repro.server.responses.encode_ok`).

Durability contract:

* **Atomic writes.**  Both artefacts are written to a same-directory temp
  file and ``os.replace``-d into place, so readers (including concurrent
  server threads and parallel CI jobs) only ever see absent or complete
  files -- never a torn write.  Concurrent writers of the same fingerprint
  are harmless: both write identical bytes (content addressing) and the
  last rename wins.
* **Corruption-tolerant reads.**  Anything unexpected -- a
  :class:`~repro.records.format.RecordFormatError` from the binary reader
  (truncation, bit flips, stale schema, CRC mismatch), unparseable JSON
  (including the non-standard ``NaN``/``Infinity`` literals and nesting
  past the parser's recursion limit), a schema-version or
  fingerprint/tag mismatch, record rows that fail
  ``ScenarioRecord.from_dict`` validation -- reads as a *miss*, never an
  exception: a corrupt ``.rrec`` falls back to the JSON document, and only
  when both fail does the caller re-run and overwrite.  A cache can
  therefore be truncated, hand-edited or written by a future schema
  without breaking anyone.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.cache.fingerprint import CACHE_SCHEMA_VERSION
from repro.records import (
    RecordFile,
    RecordFormatError,
    encode_records,
    write_records,
)
from repro.scenarios.record import ScenarioRecord

#: Environment variable naming the cache root.  ``run_scenario(cache=None)``
#: enables caching iff this is set; ``cache=True`` falls back to
#: :data:`DEFAULT_CACHE_DIR` when it is not.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Cache root used by ``cache=True`` / ``--cache`` when the environment
#: variable is unset.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-qram"

#: A committed artefact's file name: the fingerprint plus either backend's suffix.
_ARTEFACT_NAME = re.compile(r"([0-9a-f]{64})\.(?:json|rrec)")


def _reject_constant(name: str) -> object:
    """``parse_constant`` hook: ``NaN`` and the infinities are not JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or the per-user default."""
    env = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return Path(env) if env else DEFAULT_CACHE_DIR


class ResultCache:
    """Content-addressed store mapping run fingerprints to record lists."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r})"

    def path_for(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s JSON document lives (existing or not)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def binary_path_for(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s packed ``.rrec`` artefact lives."""
        return self.root / fingerprint[:2] / f"{fingerprint}.rrec"

    # ----------------------------------------------------------------- reads
    def get(self, fingerprint: str) -> list[ScenarioRecord] | None:
        """The cached records for ``fingerprint``, or ``None`` on any miss.

        The packed ``.rrec`` artefact is tried first (no JSON parse); its
        header tag must equal the fingerprint, so a renamed artefact is a
        miss, not a wrong answer.  A corrupt or absent binary falls back to
        the JSON document; corrupt, truncated, mislabelled or
        schema-incompatible documents are misses, not errors (see the module
        docstring).
        """
        try:
            record_file = RecordFile(self.binary_path_for(fingerprint))
            if record_file.tag == fingerprint:
                return record_file.records()
        except RecordFormatError:
            pass
        return self._document_records(fingerprint)

    def get_binary(self, fingerprint: str) -> bytes | None:
        """The validated ``.rrec`` artefact bytes for ``fingerprint``, or ``None``.

        The HTTP ``.rrec`` route serves this without materializing a single
        record dict.  If the binary artefact is missing or corrupt but the
        JSON document is intact, the artefact is re-encoded from it and
        healed on disk, so pre-binary caches stay fully servable; the
        encoded bytes are committed and returned as they are, never read
        back.
        """
        try:
            record_file = RecordFile(self.binary_path_for(fingerprint))
            if record_file.tag == fingerprint:
                return record_file.tobytes()
        except RecordFormatError:
            pass
        records = self._document_records(fingerprint)
        if records is None:
            return None
        try:
            blob = encode_records(records, tag=fingerprint)
        except RecordFormatError:
            # A document row the packed format cannot hold (an integer
            # outside int64) has no binary artefact.
            return None
        path = self.binary_path_for(fingerprint)
        with self._committing(fingerprint, path) as (handle, _):
            handle.write(blob)
        return blob

    def get_payload(self, fingerprint: str) -> tuple[bytes, dict] | None:
        """``fingerprint``'s committed JSON document as ``(blob, payload)``.

        ``blob`` is the file's exact bytes and ``payload`` their parse; the
        pair is ``None`` when the document is absent, is not UTF-8 strict
        JSON (a ``NaN``/``Infinity`` literal or nesting past the parser's
        recursion limit included), or fails the schema-version, fingerprint
        or ``records`` checks.  The HTTP results route splices ``blob`` into
        its envelope, so a client receives exactly what ``put`` committed.
        """
        try:
            blob = self.path_for(fingerprint).read_bytes()
            text = blob.decode("utf-8")
            payload = json.loads(text, parse_constant=_reject_constant)
        except (OSError, ValueError, RecursionError):
            # ValueError covers bad UTF-8, malformed JSON, the non-standard
            # constants and integers past the interpreter's digit limit.
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        if not isinstance(payload.get("records"), list):
            return None
        return blob, payload

    def _document_records(self, fingerprint: str) -> list[ScenarioRecord] | None:
        """The JSON document's rows as records, or ``None`` on any miss."""
        document = self.get_payload(fingerprint)
        if document is None:
            return None
        try:
            return [ScenarioRecord.from_dict(row) for row in document[1]["records"]]
        except (ValueError, TypeError):
            return None

    def __contains__(self, fingerprint: str) -> bool:
        try:
            if RecordFile(self.binary_path_for(fingerprint)).tag == fingerprint:
                return True
        except RecordFormatError:
            pass
        return self.get_payload(fingerprint) is not None

    # ---------------------------------------------------------------- writes
    @contextmanager
    def _committing(self, fingerprint: str, path: Path):
        """Yield ``(handle, temp_name)`` for a same-directory temp file that is
        renamed onto ``path`` on a clean exit and removed otherwise."""
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fingerprint[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                yield handle, temp_name
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def put(self, fingerprint: str, records: list[ScenarioRecord]) -> Path:
        """Atomically commit ``records`` under ``fingerprint``.

        Writes both backends -- the packed ``.rrec`` artefact (tagged with
        the fingerprint) and the JSON document -- and returns the JSON
        path.  Serialization is canonical on both sides (sorted keys and
        fixed indentation for JSON, first-seen interning order for binary),
        so two processes caching the same run write byte-identical
        artefacts -- the property the CI warm/cold payload diff asserts end
        to end.  JSON is strict: NaN values encode as ``null``.
        """
        # Encoded onto the temp path by ``write_records``: perfbench's
        # ``records.encode`` span times that call and sizes its file.
        binary_path = self.binary_path_for(fingerprint)
        with self._committing(fingerprint, binary_path) as (_, temp_name):
            write_records(temp_name, records, tag=fingerprint)
        document = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "records": [record.json_dict() for record in records],
        }
        blob = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
        path = self.path_for(fingerprint)
        with self._committing(fingerprint, path) as (handle, _):
            handle.write(blob.encode("utf-8"))
        return path

    # ------------------------------------------------------------- inventory
    def fingerprints(self) -> list[str]:
        """Every fingerprint with a well-formed artefact (either backend), sorted."""
        if not self.root.is_dir():
            return []
        found = set()
        for path in self.root.glob("??/*.json"):
            fingerprint = path.stem
            if self.get_payload(fingerprint) is not None:
                found.add(fingerprint)
        for path in self.root.glob("??/*.rrec"):
            fingerprint = path.stem
            if fingerprint in found:
                continue
            try:
                if RecordFile(path).tag == fingerprint:
                    found.add(fingerprint)
            except RecordFormatError:
                pass
        return sorted(found)

    def count(self) -> int:
        """How many fingerprints have an artefact file, by name alone.

        Counts the distinct 64-hex stems of ``<fp[:2]>/<fp>.json`` and
        ``<fp[:2]>/<fp>.rrec`` from directory entries; no file is opened,
        so a corrupt artefact counts until a read or a re-run replaces it.
        On a clean cache this equals ``len(fingerprints())``.  A named
        method rather than ``__len__``: an empty cache must stay truthy.
        """
        found = set()
        try:
            shards = [entry for entry in os.scandir(self.root) if entry.is_dir()]
        except OSError:
            return 0
        for shard in shards:
            try:
                names = os.listdir(shard.path)
            except OSError:
                continue
            for name in names:
                match = _ARTEFACT_NAME.fullmatch(name)
                if match is not None and match[1][:2] == shard.name:
                    found.add(match[1])
        return len(found)


def resolve_cache(cache: "ResultCache | bool | str | Path | None") -> ResultCache | None:
    """Normalise a ``cache=`` argument into a :class:`ResultCache` or ``None``.

    * ``None`` -- enabled iff ``$REPRO_CACHE_DIR`` is set (opt-in by
      environment, the CI mode);
    * ``True`` / ``False`` -- force on (env var or default dir) / off;
    * a path -- a cache rooted there;
    * a :class:`ResultCache` -- used as is.
    """
    if cache is None:
        env = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
        return ResultCache(env) if env else None
    if isinstance(cache, bool):
        return ResultCache() if cache else None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
