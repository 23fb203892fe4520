"""``GET /results/<fp>`` splices the committed document into its envelope.

The route never re-encodes: :func:`repro.server.responses.encode_ok`
indents the cache file's bytes two more spaces and wraps them.  These
tests pin that the spliced bytes are exactly what the encoder would have
produced (``encode(ok_envelope(document))``) for every document the cache
writes, and that a document which is not strict JSON reads as a miss.
"""

import http.client
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.scenarios import run_scenario
from repro.scenarios.record import ScenarioRecord
from repro.server import API_PREFIX, ScenarioServer
from repro.server.responses import (
    JSON_CONTENT_TYPE,
    RawResponse,
    encode,
    encode_ok,
    ok_envelope,
)
from tests.records.test_format import _record

FP = "ab" * 32

#: Floats whose text is easy to get wrong: signed zero, subnormals, the
#: largest double, exponent notation both ways, and NaN (``null`` on disk).
SPECIAL_FLOATS = [
    -0.0,
    0.0,
    5e-324,
    sys.float_info.min,
    1e-300,
    1e-7,
    1e16,
    1e300,
    sys.float_info.max,
    -sys.float_info.max,
    math.nan,
]

floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_infinity=False)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def records(draw) -> ScenarioRecord:
    overrides = {}
    for name, value in _record().as_dict().items():
        if name == "schema_version":
            continue
        if isinstance(value, str):
            overrides[name] = draw(st.text(max_size=12))
        elif isinstance(value, float):
            overrides[name] = draw(floats)
        else:
            overrides[name] = draw(int64)
    return _record(**overrides)


def _reject(constant):
    raise AssertionError(f"body holds a {constant} literal")


class TestSpliceProperty:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(records(), max_size=4))
    def test_spliced_envelope_is_the_encoders_bytes(self, tmp_path_factory, rows):
        cache = ResultCache(tmp_path_factory.mktemp("splice"))
        cache.put(FP, rows)
        document = cache.path_for(FP).read_bytes()
        spliced = encode_ok(document)
        assert spliced == encode(ok_envelope(json.loads(document)))
        assert json.loads(spliced, parse_constant=_reject)["data"] == json.loads(
            document
        )

    @pytest.mark.parametrize(
        "value",
        [{}, [], "", 0, None, {"a": []}, {"k": {"n": {}}}, [1, [2, [3]]], "é\n"],
    )
    def test_any_canonical_value_splices_to_the_encoders_bytes(self, value):
        for text in (
            json.dumps(value, sort_keys=True, indent=2, allow_nan=False),
            json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n",
        ):
            assert encode_ok(text.encode()) == encode(ok_envelope(value))


class TestResultsRoute:
    @pytest.fixture()
    def live(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        with ScenarioServer(port=0, cache=cache, workers=1) as server:
            yield server

    @staticmethod
    def _get(server, path):
        host, port = server.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.getheader("Content-Type"), response.read()
        finally:
            connection.close()

    def test_served_bytes_equal_the_encoders_bytes(self, live):
        cache = live.service.cache
        (fingerprint,) = cache.fingerprints()
        status, content_type, body = self._get(
            live, f"{API_PREFIX}/results/{fingerprint}"
        )
        document = json.loads(cache.path_for(fingerprint).read_bytes())
        assert (status, content_type) == (200, JSON_CONTENT_TYPE)
        assert body == encode(ok_envelope(document))

    def test_route_answers_a_json_raw_response(self, live):
        (fingerprint,) = live.service.cache.fingerprints()
        status, raw = live.service.handle_get(f"{API_PREFIX}/results/{fingerprint}")
        assert status == 200
        assert isinstance(raw, RawResponse)
        assert raw.content_type == JSON_CONTENT_TYPE

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_literal_is_not_found_and_serving_goes_on(
        self, live, literal
    ):
        cache = live.service.cache
        (fingerprint,) = cache.fingerprints()
        path = cache.path_for(fingerprint)
        document = json.loads(path.read_bytes())
        document["records"][0]["fidelity"] = math.nan
        text = json.dumps(document, sort_keys=True, indent=2)
        path.write_text(text.replace("NaN", literal))
        status, _, body = self._get(live, f"{API_PREFIX}/results/{fingerprint}")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"
        status, _, body = self._get(live, f"{API_PREFIX}/health")
        assert status == 200
