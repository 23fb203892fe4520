"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table1 [--out results/]
    python -m repro.experiments fig9 --shots 256 --seed 7 [--out results/]
    python -m repro.experiments all --quick
    python -m repro.experiments scenario --list
    python -m repro.experiments scenario htree-swap-m3 --workers 4 --out out/
    python -m repro.experiments scenario perth-m1-lookahead
    python -m repro.experiments scenario htree-swap-m3 --cache
    python -m repro.experiments scenario htree-swap-m3 --out out/ --format rrec

Each experiment prints the same rows/series the paper reports (via the
``*_report`` helpers) and, when ``--out`` is given, also writes the raw
records through :mod:`repro.experiments.export` -- CSV, JSON and Markdown
by default, plus the packed binary ``.rrec`` artefact for scenario runs
(``--format`` narrows the set; multiple scenarios additionally write every
scenario's records into one ``scenario_sweep.rrec``).

``scenario`` runs named end-to-end configurations from the
:mod:`repro.scenarios` registry (``--list`` enumerates them); any number of
scenario names can be given and each exports as ``scenario_<name>``.

The ``--quick`` flag shrinks shot counts and sweep ranges so a full
regeneration finishes in a couple of minutes on a laptop; omit it for the
paper-scale parameters recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments import (
    fig8_report,
    fig9_report,
    fig10_report,
    fig11_report,
    fig12_report,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    run_table2,
    table1_report,
    table2_report,
)
from repro.experiments.export import (
    DEFAULT_EXPORT_FORMATS,
    EXPORT_FORMATS,
    export_experiment,
)
from repro.sweep import resolve_workers


# Each wrapper runs its sweep once; the report renders the records it is
# handed and never runs anything itself.
def _table1(args) -> tuple[str, list[dict]]:
    records = run_table1(args.m, args.k, seed=args.seed, workers=args.workers)
    return table1_report(records), records


def _table2(args) -> tuple[str, list[dict]]:
    configurations = [(2, 1), (3, 2)] if args.quick else [(2, 1), (3, 2), (4, 3)]
    records = run_table2(configurations, seed=args.seed, workers=args.workers)
    return table2_report(records), records


def _fig8(args) -> tuple[str, list[dict]]:
    widths = tuple(range(1, 7)) if args.quick else tuple(range(1, 10))
    records = run_fig8(widths, seed=args.seed, workers=args.workers)
    return fig8_report(records), records


def _fig9(args) -> tuple[str, list[dict]]:
    widths = (1, 2, 3, 4) if args.quick else (1, 2, 3, 4, 5, 6)
    shots = args.shots or (128 if args.quick else 1024)
    records = run_fig9(
        widths,
        shots=shots,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
    )
    return fig9_report(records), records


def _fig10(args) -> tuple[str, list[dict]]:
    widths = (1, 2, 3) if args.quick else (1, 2, 3, 4, 5, 6)
    shots = args.shots or (128 if args.quick else 1024)
    records = run_fig10(
        widths,
        shots=shots,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
    )
    return fig10_report(records), records


def _fig11(args) -> tuple[str, list[dict]]:
    qram_widths = (1, 2) if args.quick else (1, 2, 3, 4)
    sqc_widths = (0, 1, 2) if args.quick else (0, 1, 2, 3)
    shots = args.shots or (128 if args.quick else 512)
    records = run_fig11(
        qram_widths,
        sqc_widths,
        shots=shots,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
    )
    return fig11_report(records), records


def _fig12(args) -> tuple[str, list[dict]]:
    shots = args.shots or (100 if args.quick else 200)
    records = run_fig12(
        shots=shots,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
    )
    return fig12_report(records), records


EXPERIMENTS: dict[str, Callable] = {
    "table1": _table1,
    "table2": _table2,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
}


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` accepting integers ``>= minimum`` (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """Build the experiments CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the MICRO 2023 QRAM paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "scenario"],
        help="which experiment to run ('all' for every one, 'list' to "
        "enumerate, 'scenario' for the end-to-end scenario registry)",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="scenario names to run (only with the 'scenario' experiment)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="with 'scenario': list registered scenarios and exit",
    )
    parser.add_argument(
        "--shots", type=_int_at_least(1), default=None, help="Monte-Carlo shots override"
    )
    parser.add_argument("--quick", action="store_true", help="smaller sweeps for a fast run")
    parser.add_argument(
        "--m", type=_int_at_least(1), default=4, help="QRAM width for table1"
    )
    parser.add_argument(
        "--k", type=_int_at_least(0), default=2, help="SQC width for table1"
    )
    parser.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=None,
        help="random seed forwarded to every runner (default: the project-wide "
        "DEFAULT_SEED, so figures are reproducible bit-for-bit)",
    )
    parser.add_argument(
        "--workers",
        type=_int_at_least(0),
        default=None,
        help="worker processes for sharded sweeps (1 = serial, 0 = all cores; "
        "default: the REPRO_SWEEP_WORKERS environment variable, else 1). "
        "Deterministic seed-splitting makes the artefacts bit-identical for "
        "every worker count",
    )
    parser.add_argument(
        "--shard-size",
        type=_int_at_least(1),
        default=None,
        help="Monte-Carlo shots per work unit (scheduling granularity only; "
        "results are bit-identical for every shard size)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="directory to write record artefacts into",
    )
    parser.add_argument(
        "--format",
        dest="formats",
        action="append",
        choices=sorted(EXPORT_FORMATS) + ["all"],
        default=None,
        help="artefact format(s) to write under --out (repeatable; 'all' "
        "selects every one). Default: csv, json and markdown, plus the "
        "packed binary 'rrec' for scenario runs. 'rrec' is scenario-only",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache",
        action="store_true",
        help="consult the content-addressed result cache for scenario runs "
        "($REPRO_CACHE_DIR, else ~/.cache/repro-qram): warm hits return the "
        "stored records, bit-identical to a fresh run, without executing "
        "anything",
    )
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result cache even when REPRO_CACHE_DIR is set",
    )
    return parser


def resolve_formats(args, *, scenario: bool) -> tuple[str, ...]:
    """The export formats one run writes, from the ``--format`` flags.

    ``rrec`` requires scenario records (figure runners return plain dicts
    with no binary schema), so scenario runs default to every format and
    figure runs to the JSON-family three; asking for ``rrec`` on a figure is
    a usage error raised here.
    """
    if args.formats is None:
        return EXPORT_FORMATS if scenario else DEFAULT_EXPORT_FORMATS
    chosen: list[str] = []
    for entry in args.formats:
        expansion = (
            (EXPORT_FORMATS if scenario else DEFAULT_EXPORT_FORMATS)
            if entry == "all"
            else (entry,)
        )
        for fmt in expansion:
            if fmt not in chosen:
                chosen.append(fmt)
    if "rrec" in chosen and not scenario:
        raise ValueError(
            "--format rrec only applies to 'scenario' runs; figure records "
            "have no binary schema"
        )
    return tuple(chosen)


def run_experiment(name: str, args) -> None:
    """Run one named experiment and print/export its records."""
    report, records = EXPERIMENTS[name](args)
    print(report)
    if args.out:
        formats = resolve_formats(args, scenario=False)
        paths = export_experiment(records, args.out, name, formats=formats)
        written = ", ".join(str(paths[fmt]) for fmt in paths)
        print(f"[{name}] wrote {written}")


def run_scenarios(args) -> int:
    """Handle the ``scenario`` experiment: listing and named runs."""
    from repro.scenarios import (
        available_scenarios,
        get_scenario,
        run_scenario,
        scenario_report,
    )

    if args.list:
        for name in available_scenarios():
            print(f"{name}: {get_scenario(name).description}")
        return 0
    if not args.names:
        print(
            "error: 'scenario' needs at least one scenario name "
            "(use --list to enumerate)",
            file=sys.stderr,
        )
        return 2
    try:
        for name in args.names:
            get_scenario(name)  # fail fast on unknown names before running any
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    from repro.circuit.ir import BranchBudgetError

    # Neither flag: cache iff $REPRO_CACHE_DIR is set (see repro.cache.store).
    cache = True if args.cache else (False if args.no_cache else None)
    formats = resolve_formats(args, scenario=True)
    sweep_records = []
    for name in args.names:
        try:
            records = run_scenario(
                name,
                shots=args.shots,
                seed=args.seed,
                workers=args.workers,
                shard_size=args.shard_size,
                cache=cache,
            )
        except BranchBudgetError as exc:
            print(f"error: branch budget exceeded: {exc}", file=sys.stderr)
            return 2
        print(scenario_report(name, records))
        if args.out:
            paths = export_experiment(
                records, args.out, f"scenario_{name}", formats=formats
            )
            sweep_records.extend(records)
            written = ", ".join(str(paths[fmt]) for fmt in paths)
            print(f"[scenario {name}] wrote {written}")
    if args.out and "rrec" in formats and len(args.names) > 1:
        # One artefact across every requested scenario: the concatenated
        # records, encoded once.
        from pathlib import Path

        from repro.records import write_records

        merged = write_records(Path(args.out) / "scenario_sweep.rrec", sweep_records)
        print(f"[scenario] merged {len(args.names)} artefacts into {merged}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        print("scenario (see 'scenario --list')")
        return 0
    if args.names and args.experiment != "scenario":
        parser.error("positional scenario names are only valid with 'scenario'")
    try:
        # An unset --workers falls back to $REPRO_SWEEP_WORKERS: a bad value
        # there is a usage error here, not a traceback inside the first sweep.
        resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        resolve_formats(args, scenario=args.experiment == "scenario")
    except ValueError as exc:
        parser.error(str(exc))
    if args.experiment == "scenario":
        return run_scenarios(args)
    run_all = args.experiment == "all"
    names = sorted(EXPERIMENTS) if run_all else [args.experiment]
    failures: list[str] = []
    for name in names:
        try:
            run_experiment(name, args)
        except Exception as exc:
            if not run_all:
                raise
            # 'all' keeps going so one broken experiment does not hide the
            # rest -- but the failure must surface in the exit code.
            print(f"error: [{name}] failed: {exc}", file=sys.stderr)
            failures.append(name)
    if failures:
        print(
            f"error: {len(failures)} of {len(names)} experiments failed: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
