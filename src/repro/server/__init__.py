"""Scenario results as a service: versioned HTTP API over the result cache.

``python -m repro.server`` serves the scenario registry and the
content-addressed result cache (:mod:`repro.cache`) over a stdlib-only
HTTP server with a capped pool of reused handler threads: hot scenarios
are O(1) cached lookups
(``GET /api/v1/results/<fingerprint>``), cold ones queue through
``POST /api/v1/runs`` onto the deterministic sharded
:class:`~repro.sweep.SweepRunner` and are polled at
``GET /api/v1/jobs/<id>``.  See :mod:`repro.server.app` for the route
table and :mod:`repro.server.responses` for the envelope contract.
"""

from repro.server.app import ScenarioServer, ScenarioService
from repro.server.jobs import Job, JobTable, JobWorker
from repro.server.responses import (
    API_PREFIX,
    API_VERSION,
    error_envelope,
    ok_envelope,
)

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "Job",
    "JobTable",
    "JobWorker",
    "ScenarioServer",
    "ScenarioService",
    "error_envelope",
    "ok_envelope",
]
