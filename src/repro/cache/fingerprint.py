"""Canonical, versioned fingerprints for scenario runs.

`ShotSeeds` makes every scenario run a pure function of
``(spec, seed, shots)`` -- the same inputs produce bit-identical records on
any machine, worker count or shard size.  The fingerprint is the content
address of that function application: a SHA-256 over a canonical JSON
serialization of those inputs (the spec names its router) plus the cache
and record schema versions and the engine name
(:data:`~repro.sim.engine.ENGINE_NAME`, kept so every committed fingerprint
stays valid).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from repro.scenarios.record import RECORD_SCHEMA_VERSION
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import ENGINE_NAME

#: Version of the fingerprint recipe itself (what is hashed, and how).
#: Bump whenever the canonical serialization or the input set changes, so
#: artefacts written under the old recipe can never be returned as hits.
CACHE_SCHEMA_VERSION = 1


def canonical_spec(spec: ScenarioSpec) -> dict[str, object]:
    """A JSON-safe dict of every spec field, tuples rendered as lists.

    Field order follows the dataclass declaration; :func:`run_fingerprint`
    re-serializes with sorted keys, so the order here is cosmetic.
    """
    payload: dict[str, object] = {}
    for field in fields(spec):
        value = getattr(spec, field.name)
        payload[field.name] = list(value) if isinstance(value, tuple) else value
    return payload


def canonical_run_payload(
    spec: ScenarioSpec, *, seed: int, shots: int
) -> dict[str, object]:
    """The exact dict :func:`run_fingerprint` hashes (exposed for tests/docs)."""
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "record_schema_version": RECORD_SCHEMA_VERSION,
        "spec": canonical_spec(spec),
        "seed": seed,
        "shots": shots,
        "engine": ENGINE_NAME,
    }


def run_fingerprint(spec: ScenarioSpec, *, seed: int, shots: int) -> str:
    """Content address of one scenario run: 64 lowercase hex characters.

    SHA-256 of the canonical payload serialized with sorted keys and no
    whitespace.  Two runs share a fingerprint iff they are bit-identical by
    the `ShotSeeds` determinism contract.
    """
    payload = canonical_run_payload(spec, seed=seed, shots=shots)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
