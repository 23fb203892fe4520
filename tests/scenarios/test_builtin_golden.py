"""Golden records for every built-in scenario.

Each digest is the SHA-256 of one scenario's records, serialised with
:meth:`~repro.scenarios.record.ScenarioRecord.to_json` and joined by
newlines, for a cold run at seed 2023 with 32 shots on the ``feynman-tape``
engine.  A record carries the sweep's fidelities to the last bit, so a
digest moves whenever any shot of any sweep point consumes its
``ShotSeeds`` stream differently -- including the many-channel-run draws of
the ``-idle`` builtins.  The run uses the default worker count
(``REPRO_SWEEP_WORKERS``), so a sharded suite run checks the same digests.

``GOLDEN_FINGERPRINTS`` pins each builtin's cache fingerprint at the same
seed and shot count.  A fingerprint hashes the resolved run, including the
``"engine": "feynman-tape"`` stamp, so it moves if the stamp, the router
resolution or the canonical payload changes -- even when the records do
not.

A deliberate change to a scenario or to the random-stream contract must
re-pin the affected digests here and say why.
"""

import hashlib

import pytest

from repro.scenarios import BUILTIN_SCENARIOS, resolve_run, run_scenario

SEED = 2023
SHOTS = 32

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

GOLDEN_FINGERPRINTS = {
    "bare-bb-m2": "d7192cfd8bf91c7ed4ed474526712253ec704cee1d11e134c6d6ac0644322162",
    "dual-rail-bb-m2": "db3848d051a52cc3b49ba638acd1bde63be3ecb305c4d79b95c2a61fb6cacc6e",
    "guadalupe-m2": "079bea8126689c9c963efe05e936679cbb739528f616eb0e6cd6c45dde7e3d92",
    "guadalupe-m2-lookahead": "77a79cc35eaea3144ab6af5d44100a6f07b74101513e030a6a568f6ed9026baa",
    "htree-dual-rail-idle": "919842840ae52fd577e5c8462fcdde9d74f4f9ada6371527c7f2d7850fa2407a",
    "htree-dual-rail-m3": "45b090c13f119ab1704e7e112c9f2142ed1c23d57dad242881c688997c650141",
    "htree-swap-m3": "cc94ce7c6643041d023a076ef133656ac3dee45e7d1308a64a3e6b34f0bc7e16",
    "htree-teleport-executed": "fbb4032e958e2dc7778777f2f79567c92e4d462099fa7def3c7fff3c05474e92",
    "htree-teleport-executed-idle": "aca5645fa0443c33bdb800fc2ba535cdf1b36c410c97a57b01a29309450efa93",
    "htree-teleport-fused": "c8ca8dae07ac18209fe830b2f5a23fceb108fd2f364ee2522427e34421aa940b",
    "htree-teleport-fused-idle": "1d73ecd69ce64a81f90a9de76323bfd6f2040634e2779c9eb16470fcda41c727",
    "htree-teleport-m3": "305a459cf23af0f428ab0674157d14d05ae6e313c312e905d2ade74ae3adca5b",
    "ideal-m3": "4ef308890601e1132f733186b614afe7e2c758d19d5d9bbf52864721531617fa",
    "ideal-m3-idle": "9f3ca384d642837df711f690eac0f09f910d4931db899a01d5d7d2fdeb30eb98",
    "perth-m1": "cbd03981d4b09a610034bbd84d9a5accddf901f213338f366a6801f6928af54d",
    "perth-m1-idle": "eab9b27088081111140f00ed64ad2c9ef5cdab3bc5630c62bff2ecfb2558a40a",
    "perth-m1-lookahead": "6f37a8378c628018f5114b0eec60aa6d24c57249fbd2900ccd81fcf2fb28814a",
    "perth-m1-readout": "bde25814e0c21e9ed7b0c69553aacdcfd45f7b549c6162d4a1b979989a24417f",
}


def records_digest(name: str) -> str:
    """SHA-256 of one builtin's newline-joined record JSON (cache off)."""
    records = run_scenario(name, shots=SHOTS, seed=SEED, cache=False)
    text = "\n".join(record.to_json() for record in records)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_builtin_is_pinned():
    """A new builtin must add its digest; a removed one must drop it."""
    assert sorted(GOLDEN_DIGESTS) == sorted(spec.name for spec in BUILTIN_SCENARIOS)


def test_every_builtin_fingerprint_is_pinned():
    """The fingerprint table covers exactly the builtins."""
    names = {spec.name for spec in BUILTIN_SCENARIOS}
    assert set(GOLDEN_FINGERPRINTS) == names


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_builtin_records_match_golden(name):
    """Cold records are byte-identical to the committed digest."""
    assert records_digest(name) == GOLDEN_DIGESTS[name], (
        f"{name}: records diverged from the golden digest -- a shot stream, "
        "the noise-site order or the scenario itself changed"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_builtin_fingerprint_matches_golden(name):
    """The resolved run's cache fingerprint is the committed one."""
    fingerprint = resolve_run(name, shots=SHOTS, seed=SEED)[4]
    assert fingerprint == GOLDEN_FINGERPRINTS[name], (
        f"{name}: fingerprint moved -- the canonical run payload changed"
    )
