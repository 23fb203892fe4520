"""Typed branch-budget failures on every surface that can hit them.

A circuit whose live path branching exceeds the budget
(:data:`repro.circuit.ir.MAX_BRANCHES`) must fail the same way
everywhere: the typed :class:`~repro.circuit.ir.BranchBudgetError` at
compile time, the same error re-raised by the engines at run time (the
memoised compile cache must never smuggle an over-budget tape past a
budget that was tightened later), exit code 2 with a readable message from
the CLI, the ``branch_budget_exceeded`` slug from both server paths
(submit-time 400 and the async job worker), and -- crucially -- a result
cache that never stores anything for a failed run.

``htree-teleport-fused`` is the probe: entanglement-swapping links give its
compiled circuit branch level 1, so a budget of 0 trips every check while
the default budget passes.  Each test compiles a uniquely named variant --
``compile_scenario`` is memoised on the spec, so reusing a name would let
one test's cached tape change what the next test exercises.
"""

import itertools
import json

import pytest

from repro.cache.store import ResultCache
from repro.circuit import ir
from repro.circuit.ir import BranchBudgetError
from repro.experiments.__main__ import main
from repro.scenarios import compile_scenario, get_scenario, run_scenario
from repro.scenarios.run import resolve_run
from repro.scenarios.spec import _REGISTRY, register_scenario
from repro.server import API_PREFIX, ScenarioService
from repro.server.jobs import JobTable, JobWorker

SEED = 7
_PROBE_IDS = itertools.count()


def fused_probe(tag: str):
    """A uniquely named ``htree-teleport-fused`` variant (forces cache misses)."""
    return get_scenario("htree-teleport-fused").variant(
        f"budget-probe-{tag}-{next(_PROBE_IDS)}", "branch budget probe"
    )


@pytest.fixture
def zero_budget(monkeypatch):
    """Clamp the branch budget to 0 for one test."""
    monkeypatch.setattr(ir, "MAX_BRANCHES", 0)


@pytest.fixture
def registered_probe():
    """A budget probe registered under its name (CLI/server lookup paths)."""
    spec = register_scenario(fused_probe("registered"))
    try:
        yield spec
    finally:
        _REGISTRY.pop(spec.name, None)


class TestBudgetApi:
    def test_error_is_a_typed_value_error(self):
        assert issubclass(BranchBudgetError, ValueError)

    def test_budget_is_read_at_call_time(self, monkeypatch):
        """``require_branch_budget`` checks the constant as it is when called;
        an explicit ``budget=`` overrides it."""
        tape = ir.compile_circuit(compile_scenario(fused_probe("api"), SEED).circuit)
        assert ir.MAX_BRANCHES == 10
        assert 1 <= tape.max_branch_level <= ir.MAX_BRANCHES
        tape.require_branch_budget()
        monkeypatch.setattr(ir, "MAX_BRANCHES", 0)
        with pytest.raises(BranchBudgetError, match="branch budget is 0"):
            tape.require_branch_budget()
        tape.require_branch_budget(budget=tape.max_branch_level)


class TestCompileAndRunTime:
    def test_compile_time_error(self, zero_budget):
        """A fresh compile of a branching scenario trips the budget."""
        with pytest.raises(BranchBudgetError, match="branch budget"):
            compile_scenario(fused_probe("compile"), SEED)

    def test_cached_compile_still_fails_at_run_time(self, monkeypatch):
        """Engines re-check the budget: the memoised compile is no bypass.

        The compile cache is keyed on the spec, not the budget, so a tape
        compiled under the default budget survives a later tightening.  The
        engines' own ``require_branch_budget`` call must catch it at run
        time -- otherwise a long-lived process could keep executing circuits
        the operator just outlawed.
        """
        spec = fused_probe("runtime")
        compile_scenario(spec, SEED)  # warm the memoised compile, default budget
        monkeypatch.setattr(ir, "MAX_BRANCHES", 0)
        with pytest.raises(BranchBudgetError, match="branch budget"):
            run_scenario(spec, shots=2, seed=SEED, workers=1)

    def test_cache_never_stores_failed_runs(self, zero_budget, tmp_path):
        """A run that dies on the budget leaves the result cache empty."""
        cache = ResultCache(tmp_path)
        with pytest.raises(BranchBudgetError):
            run_scenario(
                fused_probe("cache"), shots=2, seed=SEED, workers=1, cache=cache
            )
        assert cache.fingerprints() == []


class TestCliSurface:
    def test_exit_code_2_and_readable_message(
        self, zero_budget, registered_probe, capsys
    ):
        rc = main(
            ["scenario", registered_probe.name, "--shots", "2", "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "branch budget exceeded" in captured.err


class TestServerSurface:
    def test_submit_rejected_with_typed_slug(
        self, zero_budget, registered_probe, tmp_path
    ):
        """The compile pre-flight 400s at submit time; nothing is queued."""
        service = ScenarioService(cache=str(tmp_path))
        status, envelope = service.handle_post(
            f"{API_PREFIX}/runs",
            json.dumps({"scenario": registered_probe.name, "shots": 2}).encode(),
        )
        assert status == 400
        assert envelope["error"]["code"] == "branch_budget_exceeded"
        assert len(service.jobs) == 0

    def test_job_worker_reports_typed_slug(self, zero_budget, tmp_path):
        """A job that dodged the pre-flight errors with the same slug."""
        spec, seed, shots, _, fingerprint = resolve_run(
            fused_probe("worker"), shots=2, seed=SEED
        )
        table = JobTable()
        worker = JobWorker(table, ResultCache(tmp_path), workers=1)
        job = table.create(spec, fingerprint, shots=shots, seed=seed)
        # Drive the drain loop synchronously: one job, then the sentinel.
        worker._queue.put(job)
        worker._queue.put(None)
        worker._drain()
        finished = table.get(job.id)
        assert finished.status == "error"
        assert finished.error.startswith("branch_budget_exceeded")
