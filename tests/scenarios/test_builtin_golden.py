"""Golden records for every built-in scenario.

Each digest is the SHA-256 of one scenario's records, serialised with
:meth:`~repro.scenarios.record.ScenarioRecord.to_json` and joined by
newlines, for a cold run at seed 2023 with 32 shots on the ``feynman-tape``
engine.  A record carries the sweep's fidelities to the last bit, so a
digest moves whenever any shot of any sweep point consumes its
``ShotSeeds`` stream differently -- including the many-channel-run draws of
the ``-idle`` builtins.  The run uses the default worker count
(``REPRO_SWEEP_WORKERS``), so a sharded suite run checks the same digests.

A deliberate change to a scenario or to the random-stream contract must
re-pin the affected digests here and say why.
"""

import hashlib

import pytest

from repro.scenarios import BUILTIN_SCENARIOS, run_scenario

SEED = 2023
SHOTS = 32
ENGINE = "feynman-tape"

GOLDEN_DIGESTS = {
    "bare-bb-m2": "715883fcac61acb58ed78c09f94c279f8d4fcce70a3a937474d3ca83d59a1ff0",
    "dual-rail-bb-m2": "c7646871a81388bca007e514da645cab6399f058055be04abc95b35d2408d924",
    "guadalupe-m2": "616c2d91d64439680f6bd59d1567e1f7fe923f61a25558ebf2ca145a29b81612",
    "guadalupe-m2-lookahead": "c7d95dcd72daad642ee4e0c040a38bf57c3950cd0cc33d46e7e37aa8c53b5bdc",
    "htree-dual-rail-idle": "2db9988794f187c6ec45363537cf327681e30006deeb7dd814c99ee6520e2a93",
    "htree-dual-rail-m3": "28dd40c77a174518dc5028b537f2edb12b2eb954734287d58ed8ad582873de00",
    "htree-swap-m3": "85005458c9e970419fd0b860ddf8c0e8a70741f6cd08696f87f5815f0189ca95",
    "htree-teleport-executed": "7af1f5af2ff0c13933592cf3e42d1f1958caabe66aff462c4ee90babbdab9749",
    "htree-teleport-executed-idle": "d06f4cbbc1870edd4a92464ebc3d7a8071e6e5f76e9a3279d78f8587b24a0bbb",
    "htree-teleport-fused": "f6d447caccba743ab57424a673fcc496c1f1e711b5343aade92f85eb32f047e6",
    "htree-teleport-fused-idle": "048ca4c75033d2026e1c028e3db57e78ea4fd83827a85d79210ed335b61fb07f",
    "htree-teleport-m3": "d594238fe52237c6d2c7fde0694a5410d4f2f5bbf31cfea783ba8e48d9c65bba",
    "ideal-m3": "23c6595f89f4ee9124d7d1f441bd63215eea282eaad9a9002eac40280bd6d11e",
    "ideal-m3-idle": "37754c0ab72e9b71dd0abf1528212f2114b5b936652f1ba0e98e5b27481913d5",
    "perth-m1": "66557416e29d0e2e2fd9abcaac708135a135ca39c5de025f08e01faf2527d4b5",
    "perth-m1-idle": "e0b7a1bc869747958cdfd744a0d948d563fb1ca614cab862004c01cd05f2198a",
    "perth-m1-lookahead": "dffb331e33278114aa771e30309ddc12e8a61b213fca786e8ddb2e230012e24c",
    "perth-m1-readout": "07f96b79717bc9939a817c9ba2330d4dbe2c67453c118c4837a784f26864e95f",
}


def records_digest(name: str) -> str:
    """SHA-256 of one builtin's newline-joined record JSON (cache off)."""
    records = run_scenario(name, shots=SHOTS, seed=SEED, engine=ENGINE, cache=False)
    text = "\n".join(record.to_json() for record in records)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_builtin_is_pinned():
    """A new builtin must add its digest; a removed one must drop it."""
    assert sorted(GOLDEN_DIGESTS) == sorted(spec.name for spec in BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_builtin_records_match_golden(name):
    """Cold records are byte-identical to the committed digest."""
    assert records_digest(name) == GOLDEN_DIGESTS[name], (
        f"{name}: records diverged from the golden digest -- a shot stream, "
        "the noise-site order or the scenario itself changed"
    )
