"""The typed, versioned scenario sweep-point record.

:func:`repro.scenarios.run.run_scenario` historically returned ad-hoc
``dict[str, object]`` rows.  :class:`ScenarioRecord` replaces them with a
frozen dataclass carrying an explicit ``schema_version``, a canonical
``to_json``/``from_json`` round trip (the serialization the result cache
and the HTTP API store and serve), and full read-only mapping duck-typing
(``record["fidelity"]``, ``dict(record)``, ``record.get(...)``) so every
existing consumer -- ``format_table``, ``records_to_csv/json/markdown``,
the tests -- keeps working unchanged.

Versioning contract: any change to the field set or to a field's meaning
bumps :data:`RECORD_SCHEMA_VERSION`; the cache fingerprint includes the
version, so artefacts written under an old schema can never be served as
current ones.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator

#: Version of the record field set below.  Bump on any field change: the
#: cache fingerprint mixes it in, so stale artefacts miss instead of lying.
#: v2 added ``kept_fraction`` (dual-rail postselection accounting).
RECORD_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ScenarioRecord:
    """One sweep point of one scenario run, fully self-describing.

    Every configuration axis that influenced the numbers is stamped in --
    including the ``engine`` and ``router`` names -- so a record pulled out
    of the cache or served over HTTP is interpretable without the session
    that made it.

    The class is a read-only mapping over its field names: ``record[key]``,
    ``key in record``, ``iter(record)``, ``len(record)``, ``record.get(key)``
    and therefore ``dict(record)`` all work, matching the historical plain
    dict rows byte-for-byte in the JSON/CSV exports.
    """

    scenario: str
    architecture: str
    m: int
    k: int
    mapping: str
    routing: str
    router: str
    device: str
    num_qubits: int
    logical_gates: int
    executed_gates: int
    extra_swaps: int
    link_operations: int
    measurements: int
    logical_depth: int
    executed_depth: int
    idle_error: float
    readout_error: float
    error_reduction_factor: float
    shots: int
    engine: str
    fidelity: float
    std_error: float
    #: Fraction of shots that survived postselection on the run's recorded
    #: check outcomes (``1.0`` for scenarios without postselection).  The
    #: dual-rail mapping keeps this *in the data model* rather than folding
    #: the discard silently into ``fidelity``: ``fidelity`` is the mean over
    #: kept shots only, and ``kept_fraction`` says how many those were.
    #: When every shot is rejected it is ``0.0`` and ``fidelity`` is ``NaN``
    #: -- never a silently 0-filled fidelity.
    kept_fraction: float = 1.0
    schema_version: int = RECORD_SCHEMA_VERSION

    def __post_init__(self) -> None:
        """Canonicalize value types so equal records serialize identically.

        Float fields are coerced through ``float`` (an integer-valued
        ``10`` and ``10.0`` must produce the same JSON bytes and the same
        packed binary row), int fields through ``__index__`` (accepting
        numpy integers, rejecting floats), and string fields must be
        ``str``.  Anything uncoercible raises ``ValueError``/``TypeError``,
        which the cache's corruption-tolerant readers treat as a miss.
        """
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float":
                object.__setattr__(self, field.name, float(value))
            elif field.type == "int":
                object.__setattr__(self, field.name, operator.index(value))
            elif not isinstance(value, str):
                raise ValueError(
                    f"record field {field.name!r} must be a string, "
                    f"got {type(value).__name__}"
                )

    # ------------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        """Field-wise equality, NaN-aware.

        An all-rejected postselected point has ``fidelity = NaN``; two such
        records are the *same result*, so NaN compares equal to NaN here
        (per field, both sides float).  This is what lets
        ``decode(encode(records)) == records`` hold for every record the
        pipeline can produce, not just the finite ones.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        for key in self.keys():
            mine, theirs = getattr(self, key), getattr(other, key)
            if mine == theirs:
                continue
            if not (
                isinstance(mine, float)
                and isinstance(theirs, float)
                and math.isnan(mine)
                and math.isnan(theirs)
            ):
                return False
        return True

    def __hash__(self) -> int:
        """Hash consistent with the NaN-aware ``__eq__`` (NaN canonicalized)."""
        return hash(
            tuple(
                "nan" if isinstance(value, float) and math.isnan(value) else value
                for value in (getattr(self, key) for key in self.keys())
            )
        )

    # ------------------------------------------------------- mapping protocol
    def keys(self) -> tuple[str, ...]:
        """Field names in declaration order (the export column order)."""
        return tuple(field.name for field in fields(self))

    def __getitem__(self, key: str) -> object:
        if not isinstance(key, str) or key.startswith("_") or not hasattr(self, key):
            raise KeyError(key)
        return getattr(self, key)

    def get(self, key: str, default: object = None) -> object:
        """Mapping-style lookup with a default, mirroring ``dict.get``."""
        try:
            return self[key]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and not key.startswith("_") and hasattr(self, key)

    # --------------------------------------------------------- serialization
    def as_dict(self) -> dict[str, object]:
        """Plain ``dict`` escape hatch, in field order (NaN kept as NaN)."""
        return {key: getattr(self, key) for key in self.keys()}

    def json_dict(self) -> dict[str, object]:
        """:meth:`as_dict` with NaN encoded as ``None`` -- the JSON view.

        ``json.dumps`` would otherwise emit the non-standard ``NaN``
        literal (invalid JSON: strict parsers and every HTTP client
        reject it).  The canonical encoding is ``null``;
        :meth:`from_dict` maps it back to NaN for float fields, so the
        round trip is lossless for all-rejected postselected points.
        """
        return {
            key: None
            if isinstance(value, float) and math.isnan(value)
            else value
            for key, value in self.as_dict().items()
        }

    def to_json(self) -> str:
        """Canonical strict JSON: sorted keys, no whitespace, NaN as ``null``."""
        return json.dumps(
            self.json_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ScenarioRecord":
        """Rebuild a record from :meth:`as_dict` output.

        Rejects unknown keys, missing keys and schema-version mismatches
        outright rather than guessing at a migration -- the cache treats the
        resulting ``ValueError`` as a miss and re-runs.  ``schema_version``
        itself must be present: a truncated or foreign payload without one
        would otherwise be waved through as current-schema, which is exactly
        the lie the version stamp exists to prevent.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"record payload must be a dict, got {type(payload)}")
        expected = {field.name for field in fields(cls)}
        unknown = set(payload) - expected
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        missing = expected - set(payload)
        if missing:
            raise ValueError(f"missing record fields: {sorted(missing)}")
        version = payload["schema_version"]
        if version != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"record schema_version {version!r} != "
                f"current {RECORD_SCHEMA_VERSION}"
            )
        decoded = {
            key: math.nan
            if value is None and key in _FLOAT_FIELDS
            else value
            for key, value in payload.items()
        }
        return cls(**decoded)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioRecord":
        """Inverse of :meth:`to_json` (same validation as :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text))


#: Float-typed field names: the ones whose JSON ``null`` decodes to NaN.
_FLOAT_FIELDS = frozenset(
    field.name for field in fields(ScenarioRecord) if field.type == "float"
)
