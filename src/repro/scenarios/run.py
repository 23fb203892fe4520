"""Execute compiled scenarios through the sharded sweep runner.

One scenario run is a Monte-Carlo sweep over the spec's error-reduction
grid: each ``(eps_r, shot shard)`` work unit routes through
:class:`repro.sweep.SweepRunner`, draws its Pauli codes from the shard's
:class:`~repro.sim.seeding.ShotSeeds` window and returns per-shot
fidelities, so merged records are bit-identical for any worker count and
shard size -- the same contract every figure sweep honours.  The worker
rebuilds the (process-cached) compiled scenario from the pickled spec, so
pools work under both ``fork`` and ``spawn`` start methods for registered
and ad-hoc specs alike.

Because of that determinism, a run is a pure function of
``(spec, seed, shots)`` -- the spec names its router, which is stamped, with
the engine's :data:`~repro.sim.engine.ENGINE_NAME`, into every
:class:`~repro.scenarios.record.ScenarioRecord` -- so :func:`run_scenario`
derives the run's content address (:func:`repro.cache.run_fingerprint`) and
consults the result cache when one is configured: a warm hit returns the
stored records without executing anything or consuming any randomness,
provably bit-identical to the fresh run it replaces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.common import format_table, resolve_seed
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.record import ScenarioRecord
from repro.scenarios.spec import ScenarioSpec, get_scenario
from repro.sim.engine import ENGINE_NAME, get_engine
from repro.sweep import ShotShard, SweepRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache


def scenario_shard(spec_bundle: tuple, shard: ShotShard) -> np.ndarray:
    """Per-shard fidelities of one ``(scenario, eps_r)`` sweep point.

    ``spec_bundle`` is ``(spec, eps_r, seed)``.  :func:`run_scenario` and
    Figure 12 (:func:`repro.experiments.fig12.run_fig12`) shard over it.
    """
    spec, factor, seed = spec_bundle
    compiled = compile_scenario(spec, seed)
    result = get_engine().query_fidelities(
        compiled.circuit,
        compiled.input_state,
        compiled.noise_model(factor),
        shard.shots,
        keep_qubits=list(compiled.keep_qubits),
        ideal_output=compiled.ideal_output,
        rng=shard.seeds(),
        postselect=compiled.postselect or None,
    )
    # Readout error is one closed-form survival factor per shot (no random
    # stream consumed), so folding it here keeps sharding bit-identical.
    # Postselection-rejected shots are NaN and stay NaN through the
    # multiplication, so shard concatenation keeps them countable.
    survival = compiled.readout_survival(factor)
    if survival != 1.0:
        return result.fidelities * survival
    return result.fidelities


def _point_record(
    compiled: CompiledScenario,
    factor: float,
    shots: int,
    fidelity: float,
    std_error: float,
    kept_fraction: float,
) -> ScenarioRecord:
    """One sweep point as a typed record (resolved names come off the spec)."""
    spec = compiled.spec
    return ScenarioRecord(
        scenario=spec.name,
        architecture=spec.architecture,
        m=spec.qram_width,
        k=spec.sqc_width,
        mapping=spec.mapping,
        routing=spec.routing if spec.mapping == "htree" else (
            "swap" if spec.mapping == "device" else "-"
        ),
        # The spec's router is stamped even where the mapping never invokes
        # it, so records are self-describing like the fingerprint.
        router=spec.router,
        device=compiled.device.name,
        num_qubits=compiled.circuit.num_qubits,
        logical_gates=compiled.logical_gates,
        executed_gates=compiled.executed_gates,
        extra_swaps=compiled.extra_swaps,
        link_operations=compiled.link_operations,
        measurements=compiled.measurements,
        logical_depth=compiled.logical_depth,
        executed_depth=compiled.executed_depth,
        idle_error=compiled.idle_error_rate,
        readout_error=compiled.readout_error_rate,
        error_reduction_factor=factor,
        shots=shots,
        engine=ENGINE_NAME,
        fidelity=fidelity,
        std_error=std_error,
        kept_fraction=kept_fraction,
    )


def resolve_run(
    scenario: str | ScenarioSpec,
    *,
    shots: int | None = None,
    seed: int | None = None,
) -> tuple[ScenarioSpec, int, int, str, str]:
    """Pin every defaulted run input and derive the run's content address.

    Returns ``(spec, seed, shots, engine, fingerprint)`` with ``engine`` the
    stamped :data:`~repro.sim.engine.ENGINE_NAME` -- the exact inputs the
    sweep executes, the records describe and the cache keys on.  Raises
    ``KeyError`` for an unknown scenario.
    """
    # Imported lazily: repro.cache serializes the spec/record schema defined
    # here, so a module-level import would be circular.
    from repro.cache.fingerprint import run_fingerprint

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    seed_value = resolve_seed(seed)
    shot_count = spec.shots if shots is None else shots
    fingerprint = run_fingerprint(spec, seed=seed_value, shots=shot_count)
    return spec, seed_value, shot_count, ENGINE_NAME, fingerprint


def run_scenario(
    scenario: str | ScenarioSpec,
    *,
    shots: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
    cache: ResultCache | bool | str | None = None,
) -> list[ScenarioRecord]:
    """Run one scenario's full sweep and return one record per sweep point.

    ``scenario`` is a registered name or an ad-hoc :class:`ScenarioSpec`.
    ``shots`` defaults to the spec's; ``seed`` to the project-wide default.
    Records are bit-identical across
    ``workers`` and ``shard_size``.

    ``cache`` selects the content-addressed result cache
    (see :func:`repro.cache.store.resolve_cache`): ``None`` uses
    ``$REPRO_CACHE_DIR`` when set, ``True``/``False`` force it on/off, and a
    path or :class:`~repro.cache.store.ResultCache` names one explicitly.  A
    warm hit returns the cached records directly -- no compilation, no
    execution, no randomness consumed.
    """
    from repro.cache.store import resolve_cache

    spec, seed_value, shot_count, _, fingerprint = resolve_run(
        scenario, shots=shots, seed=seed
    )
    store = resolve_cache(cache)
    if store is not None:
        cached = store.get(fingerprint)
        if cached is not None:
            return cached
    bundles = [(spec, factor, seed_value) for factor in spec.error_reduction_factors]
    runner = SweepRunner(workers=workers, shard_size=shard_size)
    merged = runner.map_shards(
        scenario_shard, bundles, shots=shot_count, seed=seed_value
    )
    compiled = compile_scenario(spec, seed_value)
    records = [
        _point_record(
            compiled,
            factor,
            shot_count,
            result.mean_fidelity,
            result.std_error,
            result.kept_fraction,
        )
        for factor, result in zip(spec.error_reduction_factors, merged)
    ]
    if store is not None:
        store.put(fingerprint, records)
    return records


def scenario_report(
    scenario: str | ScenarioSpec,
    records: list[ScenarioRecord],
) -> str:
    """Human-readable summary of one scenario's sweep records."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    first = records[0]
    header = (
        f"Scenario '{spec.name}': {spec.description}\n"
        f"  architecture={spec.architecture} m={spec.qram_width} "
        f"k={spec.sqc_width} mapping={spec.mapping} routing={first['routing']} "
        f"router={first['router']} device={first['device']}\n"
        f"  qubits={first['num_qubits']} gates={first['executed_gates']} "
        f"(logical {first['logical_gates']}) "
        f"depth={first['executed_depth']} (logical {first['logical_depth']}) "
        f"extra_swaps={first['extra_swaps']} "
        f"link_ops={first['link_operations']} "
        f"measurements={first['measurements']} "
        f"idle_error={first['idle_error']} "
        f"readout_error={first['readout_error']}\n"
        f"  shots={first['shots']} engine={first['engine']}"
    )
    columns = ["error_reduction_factor", "fidelity", "std_error", "kept_fraction"]
    rows = [[record[column] for column in columns] for record in records]
    return header + "\n" + format_table(
        ["eps_r", "fidelity", "std_error", "kept_fraction"], rows
    )
