"""Documentation gates: examples cannot rot, the catalog cannot drift.

* every fenced ``python`` block in ``README.md`` and
  ``docs/ARCHITECTURE.md`` must execute (blocks run sequentially in one
  namespace per file, pre-seeded with the small ``circuit`` / ``noise``
  objects the prose refers to);
* the README scenario-catalog table must equal the live registry;
* ``docs/ARCHITECTURE.md`` must exist and be linked from the README;
* the runnable examples (including ``examples/teleportation_routing.py``,
  the executed-vs-analytic ablation) must run to completion.
"""

import re
import runpy
from pathlib import Path

import pytest

from repro.circuit import QuantumCircuit
from repro.sim import GateNoiseModel, PauliChannel

REPO_ROOT = Path(__file__).resolve().parents[2]
README = REPO_ROOT / "README.md"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"

_BLOCK_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)
# A catalog row has exactly one description cell (the Routing section's
# swap-count table has several numeric cells and must not match).
_CATALOG_ROW = re.compile(r"^\| `([a-z0-9-]+)` \| ([^|]+?) \|$", re.MULTILINE)


def python_blocks(path: Path) -> list[str]:
    """Every fenced ``python`` code block of a markdown file, in order."""
    return _BLOCK_PATTERN.findall(path.read_text(encoding="utf-8"))


def _seeded_namespace() -> dict:
    """Objects the documentation prose assumes are already in scope."""
    circuit = QuantumCircuit(num_qubits=3)
    circuit.ccx(0, 1, 2)
    circuit.cx(0, 1)
    return {
        "circuit": circuit,
        "noise": GateNoiseModel(PauliChannel.phase_flip(1e-3)),
    }


def _execute_blocks(path: Path) -> int:
    namespace = _seeded_namespace()
    for block in python_blocks(path):
        exec(compile(block, str(path), "exec"), namespace)  # noqa: S102
    return len(python_blocks(path))


@pytest.mark.slow
def test_readme_python_blocks_execute():
    assert _execute_blocks(README) >= 4


def test_architecture_doc_exists_and_blocks_execute():
    assert ARCHITECTURE.exists()
    _execute_blocks(ARCHITECTURE)


def test_architecture_doc_linked_from_readme():
    assert "docs/ARCHITECTURE.md" in README.read_text(encoding="utf-8")


def test_architecture_doc_covers_the_contracts():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    for required in (
        "ShotSeeds",
        "feynman-tape",
        "register_router",
        "register_scenario",
        "NoiseModel",
        "MEASURE",
        "CPAULI",
        "fusion-barrier",
        "branch level",
        "BranchBudgetError",
        "collapse plan",
        "teleport-fused",
        "branch_budget_exceeded",
        "encode_dual_rail",
        "kept_fraction",
        "postselect",
        "dual-rail-check",
        "pauli_bias",
        "run_noisy_shots_recorded",
        ".rrec",
        "RECORD_FORMAT_VERSION",
        "RecordFormatError",
        "CRC-32",
        "write_records",
        "byte-identical",
    ):
        assert required in text, f"ARCHITECTURE.md no longer mentions {required}"


def test_readme_scenario_catalog_matches_registry():
    """The catalog table is regenerated from `scenario --list` -- verify.

    Compared against the built-in specs rather than the live registry, so
    scenarios registered by other tests (or by the README example itself,
    which registers ``bb-on-guadalupe``) cannot pollute the check.
    """
    from repro.scenarios.builtin import BUILTIN_SCENARIOS

    rows = dict(_CATALOG_ROW.findall(README.read_text(encoding="utf-8")))
    builtins = {spec.name: spec.description for spec in BUILTIN_SCENARIOS}
    assert rows == builtins, (
        "README scenario catalog is stale; regenerate it from "
        "`python -m repro.experiments scenario --list`"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "example",
    sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py")),
)
def test_examples_run(example, capsys):
    runpy.run_path(str(REPO_ROOT / "examples" / example), run_name="__main__")
    assert capsys.readouterr().out  # every example narrates its steps
