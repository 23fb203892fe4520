"""The uniform JSON response envelope of the versioned HTTP API.

Every response body -- success or failure, any route -- has the same shape,
so clients branch on structure, not on per-endpoint conventions:

.. code-block:: text

    {"api_version": "v1", "status": "ok",    "data":  { ... }}
    {"api_version": "v1", "status": "error", "error": {"code": ..., "message": ...}}

``code`` is a stable machine-readable slug (``unknown_route``,
``unknown_scenario``, ``not_found``, ``invalid_request``,
``method_not_allowed``, ``payload_too_large``); ``message`` is
human-readable and may change
freely.  The envelope's ``api_version`` matches the route prefix
(``/api/v1/...``), so a future ``v2`` can change either independently.

Envelope JSON is *strict*: serialization refuses the non-standard ``NaN``
/ ``Infinity`` literals (records encode NaN as ``null``), so every body is
parseable by any conforming JSON client.  A route may also answer with
:class:`RawResponse` -- a pre-encoded byte body with its own content type.
The binary ``.rrec`` artefact route serves the artefact file's bytes that
way, and the JSON results route serves an envelope that
:func:`encode_ok` spliced around the committed document's own bytes, the
same bytes ``encode(ok_envelope(document))`` would produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: The API version stamped into every envelope and every route prefix.
API_VERSION = "v1"

#: Route prefix all endpoints live under.
API_PREFIX = f"/api/{API_VERSION}"

#: Content type of every envelope.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def ok_envelope(data: object) -> dict[str, object]:
    """A success envelope wrapping ``data``."""
    return {"api_version": API_VERSION, "status": "ok", "data": data}


def error_envelope(code: str, message: str) -> dict[str, object]:
    """An error envelope with a stable ``code`` slug and a human message."""
    return {
        "api_version": API_VERSION,
        "status": "error",
        "error": {"code": code, "message": message},
    }


@dataclass(frozen=True)
class RawResponse:
    """A non-JSON response body: raw bytes plus their content type.

    Service routes normally return envelope dicts; a route that serves a
    binary artefact (``GET .../results/<fp>.rrec``) returns one of these
    instead and the transport writes the bytes verbatim -- errors on such
    routes still come back as ordinary JSON envelopes.
    """

    body: bytes
    content_type: str = field(default="application/octet-stream")


def encode(payload: dict[str, object]) -> bytes:
    """Serialize an envelope to the canonical wire bytes (sorted keys).

    Strict JSON: a stray ``float('nan')`` in an envelope raises rather
    than emitting the ``NaN`` literal no standard parser accepts.
    """
    return (
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    ).encode("utf-8")


def encode_ok(data: bytes) -> bytes:
    """``encode(ok_envelope(value))`` from ``value``'s own canonical JSON bytes.

    ``data`` is ``json.dumps(value, sort_keys=True, indent=2,
    allow_nan=False)``, optionally newline-terminated.  One level deeper in
    the envelope, the same encoder only indents every line after the first
    by two more spaces: a JSON string holds no raw newline, so that is a
    byte substitution, not a re-encode.  Any strict JSON value's bytes
    splice into a strict JSON envelope that parses back to ``value``.
    """
    nested = data.strip().replace(b"\n", b"\n  ")
    return (
        b'{\n  "api_version": "' + API_VERSION.encode("ascii") + b'",\n'
        b'  "data": ' + nested + b',\n  "status": "ok"\n}\n'
    )
