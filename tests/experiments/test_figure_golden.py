"""Golden digests of small Figure 9--12 record sets.

The determinism gates compare worker counts and shard sizes within one
commit; these pins compare the noise figures' bytes across commits.  Each
digest is the SHA-256 of a canonical JSON dump of the records (floats
serialised by ``repr``, so one ULP of drift changes it).  A refactor of the
figure runners, the site tables or the seeded draw that leaves the science
unchanged must leave every digest unchanged; a deliberate change of the
random-stream contract re-pins them.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    DEFAULT_CONFIGURATIONS,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)

SEED = 7
SHOTS = 32


def _digest(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


SWEEPS = {
    "fig9": (
        lambda **kw: run_fig9((1, 2, 3), **kw),
        "de97788f99b59dba713c593ce569e068e1f478e9ea5d25c789f210b0b04485ad",
    ),
    "fig10": (
        lambda **kw: run_fig10((1, 2), (1.0, 10.0), **kw),
        "1a0d7f6ec2aca370f4b004d94061efe7a019814c3576683b4486333a5a8b5169",
    ),
    "fig11": (
        lambda **kw: run_fig11((1, 2), (0, 1), (1.0,), **kw),
        "b9150870991f069de56bde9744328b163cbde3edf60941c6edb0e1c8614e33dd",
    ),
    "fig12": (
        lambda **kw: run_fig12(DEFAULT_CONFIGURATIONS, (1.0, 100.0), **kw),
        "8c1299170be1455dd86dc897806a46b783aa05f03f07a0e3ca1f0821ab9fe5ef",
    ),
}


@pytest.mark.parametrize("shard_size", [None, 8])
@pytest.mark.parametrize("figure", sorted(SWEEPS))
def test_figure_records_match_golden_digest(figure, shard_size):
    run, expected = SWEEPS[figure]
    records = run(shots=SHOTS, seed=SEED, workers=1, shard_size=shard_size)
    assert _digest(records) == expected


def test_fig12_digest_holds_on_two_workers():
    run, expected = SWEEPS["fig12"]
    records = run(shots=SHOTS, seed=SEED, workers=2, shard_size=8)
    assert _digest(records) == expected
