"""Content-addressed result cache for scenario runs.

Because the `ShotSeeds` contract makes every scenario run a pure function of
``(spec, seed, shots)``, its records can be stored and served by content
address: :mod:`repro.cache.fingerprint` derives the
canonical, versioned key and :mod:`repro.cache.store` keeps the artefacts on
disk (``$REPRO_CACHE_DIR``) with atomic writes and corruption-tolerant
reads.  ``run_scenario(cache=...)``, the experiments CLI (``--cache`` /
``--no-cache``) and the HTTP API (:mod:`repro.server`) all consult it, so a
warm hit is an O(1) file read that is provably bit-identical to a fresh
sharded run.
"""

from repro.cache.fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonical_run_payload,
    canonical_spec,
    run_fingerprint,
)
from repro.cache.store import (
    CACHE_DIR_ENV_VAR,
    DEFAULT_CACHE_DIR,
    ResultCache,
    default_cache_dir,
    resolve_cache,
)

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "canonical_run_payload",
    "canonical_spec",
    "default_cache_dir",
    "resolve_cache",
    "run_fingerprint",
]
