"""Property test of the service boundary: any path, any body, a typed answer.

:class:`~repro.server.ScenarioService` is driven directly with arbitrary
request paths and ``POST`` bodies -- random bytes, arbitrary JSON, and JSON
objects whose known fields carry wrong-typed or out-of-range values.  The
contract: nothing raises; every answer is an ok envelope (2xx) or an error
envelope (4xx) whose slug is one of :data:`ERROR_CODES`; every envelope
encodes as strict JSON; and only a 2xx ``POST`` may add a job (exactly one).
The service has no worker attached, so accepted cold runs stay queued.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.scenarios import available_scenarios, resolve_run, run_scenario
from repro.server import API_PREFIX, API_VERSION, ScenarioService
from repro.server.responses import JSON_CONTENT_TYPE, RawResponse, encode
from repro.sim.engine import ENGINE_NAME

#: Every error slug a service handler may answer with.  (``payload_too_large``
#: is the transport's, answered before the service sees a body.)
ERROR_CODES = {
    "unknown_route",
    "unknown_scenario",
    "not_found",
    "invalid_request",
    "method_not_allowed",
    "branch_budget_exceeded",
}

SEEDED = ("ideal-m3", 8, 2)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A worker-less service over a cache holding one committed artefact."""
    cache = ResultCache(tmp_path_factory.mktemp("fuzz-cache"))
    name, shots, seed = SEEDED
    run_scenario(name, shots=shots, seed=seed, workers=1, cache=cache)
    return ScenarioService(cache=cache)


SEEDED_FP = resolve_run(SEEDED[0], shots=SEEDED[1], seed=SEEDED[2])[4]


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

counts = st.integers(-3, 3) | st.integers(99_998, 100_002) | st.integers() | json_values

submissions = st.fixed_dictionaries(
    {},
    optional={
        "scenario": st.sampled_from(available_scenarios()) | json_values,
        "shots": counts,
        "seed": st.integers(0, 3) | counts,
        "engine": st.just(ENGINE_NAME) | json_values,
        "workers": json_values,
    },
)

#: Mostly well-formed submissions, so accepted (200/202) answers are common.
plausible = st.fixed_dictionaries(
    {"scenario": st.sampled_from(available_scenarios())},
    optional={
        "shots": st.integers(1, 64),
        "seed": st.integers(0, 3),
        "engine": st.just(ENGINE_NAME),
    },
)

warm = st.just(dict(zip(("scenario", "shots", "seed"), SEEDED)))

bodies = st.binary(max_size=64) | st.one_of(
    json_values, submissions, plausible, warm
).map(lambda value: json.dumps(value).encode())

segments = st.sampled_from(
    [
        "health",
        "scenarios",
        "scenarios/ideal-m3",
        "results",
        f"results/{SEEDED_FP}",
        f"results/{SEEDED_FP}.rrec",
        f"results/{'0' * 64}",
        f"results/{'0' * 64}.rrec",
        "jobs",
        "jobs/job-0001",
        "runs",
        "",
    ]
)

paths = (
    st.text(max_size=40)
    | st.tuples(segments, st.text(max_size=16)).map(
        lambda parts: f"{API_PREFIX}/{parts[0]}{parts[1]}"
    )
    | segments.map(lambda segment: f"{API_PREFIX}/{segment}")
    | segments.map(lambda segment: f"{API_PREFIX}/{segment}/?q=1")
)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _check_answer(status, payload) -> None:
    if isinstance(payload, RawResponse):
        assert status == 200
        assert isinstance(payload.body, bytes)
        if payload.content_type != JSON_CONTENT_TYPE:
            return
        # A spliced results envelope: strict JSON, no NaN literals.
        payload = json.loads(payload.body, parse_constant=_reject_constant)
    assert status in (200, 202, 400, 404, 405)
    envelope = json.loads(encode(payload))  # strict JSON, no NaN literals
    assert envelope["api_version"] == API_VERSION
    if status < 400:
        assert envelope["status"] == "ok"
        assert "data" in envelope
    else:
        assert envelope["status"] == "error"
        assert set(envelope["error"]) == {"code", "message"}
        assert envelope["error"]["code"] in ERROR_CODES


@settings(max_examples=300, deadline=None)
@given(path=paths)
def test_any_get_answers_with_an_envelope(service, path):
    before = len(service.jobs)
    _check_answer(*service.handle_get(path))
    assert len(service.jobs) == before


@settings(max_examples=100, deadline=None)
@given(path=paths, body=bodies)
def test_a_post_to_any_path_answers_with_an_envelope(service, path, body):
    before = len(service.jobs)
    status, payload = service.handle_post(path, body)
    _check_answer(status, payload)
    assert len(service.jobs) == before + (1 if status < 400 else 0)


@settings(max_examples=300, deadline=None)
@given(body=bodies)
def test_any_run_submission_answers_with_an_envelope(service, body):
    before = len(service.jobs)
    status, payload = service.handle_post(f"{API_PREFIX}/runs", body)
    _check_answer(status, payload)
    assert len(service.jobs) == before + (1 if status < 400 else 0)
    if status < 400:
        job = payload["data"]["job"]
        assert job["status"] == ("done" if status == 200 else "queued")
        assert payload["data"]["cached"] is (status == 200)
