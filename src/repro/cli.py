"""Command-line interface of the CaWoSched reproduction.

Seven subcommands cover the everyday uses of the library without writing any
Python:

* ``schedule`` — build one instance (workflow family, size, cluster, scenario,
  deadline factor) and print the carbon cost of the requested algorithm
  variants;
* ``grid`` — run an experiment grid (optionally over ``--jobs N`` parallel
  workers) and print the headline summaries; ``--out`` writes the raw records
  as wire-format JSON;
* ``batch`` — serve a JSON file of scheduling jobs through the client
  facade (deduplication, result cache, worker pool);
* ``export`` — build one instance and write it as wire-format JSON;
* ``import`` — read a wire-format instance file and schedule it;
* ``simulate`` — run the online discrete-event simulator (workflow arrivals,
  carbon forecasts, scheduling policies) and print the online metrics;
  ``--out`` writes the full report as wire-format JSON;
* ``variants`` — list the paper's algorithm variants (``--json`` for a
  machine-readable listing with each variant's phases, score and cost
  model).

Every subcommand routes its scheduling work through the typed client
facade (:mod:`repro.api`): jobs are validated up front, results are served
through one canonical fingerprint cache, and failures surface with the
facade's structured exit codes — ``2`` for a malformed job
(:class:`~repro.api.errors.InvalidJob`), ``3`` for an unknown algorithm
variant (:class:`~repro.api.errors.UnknownVariant`), ``4`` for a job
that fails while it runs, in-process or in a ``--jobs`` worker
(:class:`~repro.api.errors.BackendFailure`).
Argument and input-file problems keep argparse's conventional exit code 2.

Invoke via ``python -m repro ...``::

    python -m repro schedule --family atacseq --tasks 60 --scenario S1 \\
        --deadline-factor 2.0 --variants ASAP pressWR-LS
    python -m repro grid --families atacseq eager --sizes 30 --seed 1 \\
        --jobs 4 --out records.json
    python -m repro export --family bacass --tasks 20 --out instance.json
    python -m repro import instance.json --variants ASAP pressWR-LS
    python -m repro batch requests.json --jobs 4 --out responses.json
    python -m repro simulate --arrivals poisson --rate 0.05 --horizon 2880 \\
        --policy edf --forecast persistence --seed 1 --out sim.json
    python -m repro variants --json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from repro.api import ApiError, Client, Job
from repro.core.scheduler import CaWoSched
from repro.core.variants import ALL_VARIANTS, VariantSpec, variant_names
from repro.experiments.instances import (
    DEFAULT_DEADLINE_FACTORS,
    DEFAULT_SCENARIOS,
    InstanceSpec,
    default_grid,
    make_instance,
)
from repro.experiments.metrics import median_cost_ratio, rank_distribution
from repro.experiments.reporting import format_mapping, format_table
from repro.experiments.runner import RunRecord, run_grid
from repro.io.wire import (
    load_instance,
    save_instance,
    save_payload,
    save_records,
    save_sim_report,
)
from repro.platform_.presets import CLUSTER_PRESETS
from repro.sim.arrivals import ARRIVAL_PROCESSES
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.forecast import FORECAST_MODELS
from repro.sim.policies import POLICIES
from repro.carbon.traces import SYNTHETIC_TRACE_PROFILES
from repro.utils.errors import CaWoSchedError
from repro.workflow.generators import WORKFLOW_FAMILIES

__all__ = ["main", "build_parser"]


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the generated-instance arguments shared by schedule/export."""
    parser.add_argument("--family", default="atacseq", choices=sorted(WORKFLOW_FAMILIES))
    parser.add_argument("--tasks", type=int, default=60, help="target workflow size")
    parser.add_argument("--cluster", default="small", choices=list(CLUSTER_PRESETS))
    parser.add_argument("--scenario", default="S1", choices=sorted(DEFAULT_SCENARIOS))
    parser.add_argument("--deadline-factor", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the CaWoSched parameter arguments shared by schedule/import."""
    parser.add_argument("--block-size", type=int, default=3, help="subdivision block size k")
    parser.add_argument("--window", type=int, default=10, help="local-search window µ")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="cawosched",
        description="Carbon-aware workflow scheduling with fixed mapping and deadline "
        "(CaWoSched reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    schedule = subparsers.add_parser(
        "schedule", help="schedule one generated instance and print the carbon costs"
    )
    _add_instance_arguments(schedule)
    schedule.add_argument(
        "--variants", nargs="+", default=None,
        help="algorithm variants to run (default: all 17)",
    )
    _add_scheduler_arguments(schedule)

    grid = subparsers.add_parser(
        "grid", help="run a small experiment grid and print summary figures"
    )
    grid.add_argument("--families", nargs="+", default=["atacseq", "eager"])
    grid.add_argument("--sizes", nargs="+", type=int, default=[30])
    grid.add_argument("--clusters", nargs="+", default=["small"])
    grid.add_argument("--scenarios", nargs="+", default=list(DEFAULT_SCENARIOS))
    grid.add_argument(
        "--deadline-factors", nargs="+", type=float, default=list(DEFAULT_DEADLINE_FACTORS)
    )
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument(
        "--variants", nargs="+", default=None,
        help="algorithm variants to run (default: ASAP + the eight -LS variants)",
    )
    grid.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker processes (default: 1, sequential)",
    )
    grid.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the raw run records to PATH as wire-format JSON",
    )

    batch = subparsers.add_parser(
        "batch", help="serve a JSON file of scheduling requests through the client facade"
    )
    batch.add_argument(
        "requests", metavar="REQUESTS_JSON",
        help="JSON file with a list of requests (each an object with a 'spec' "
        "or an 'instance' payload, plus optional 'variants' and 'scheduler')",
    )
    batch.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker processes for uncached requests (default: 1)",
    )
    batch.add_argument(
        "--cache-size", type=int, default=128,
        help="bound of the LRU result cache (default: 128 entries)",
    )
    batch.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the responses to PATH as wire-format JSON",
    )

    export = subparsers.add_parser(
        "export", help="build one generated instance and write it as wire-format JSON"
    )
    _add_instance_arguments(export)
    export.add_argument(
        "--out", required=True, metavar="PATH",
        help="destination of the wire-format instance JSON",
    )

    import_ = subparsers.add_parser(
        "import", help="read a wire-format instance file and schedule it"
    )
    import_.add_argument(
        "path", metavar="INSTANCE_JSON",
        help="wire-format instance file (e.g. produced by 'export')",
    )
    import_.add_argument(
        "--variants", nargs="+", default=None,
        help="algorithm variants to run (default: all 17)",
    )
    _add_scheduler_arguments(import_)

    simulate_ = subparsers.add_parser(
        "simulate",
        help="run the online discrete-event simulator and print the online metrics",
    )
    simulate_.add_argument(
        "--arrivals", default="poisson", choices=list(ARRIVAL_PROCESSES),
        help="arrival process of the workflow stream",
    )
    simulate_.add_argument(
        "--rate", type=float, default=0.02,
        help="Poisson arrival rate (workflows per time unit)",
    )
    simulate_.add_argument("--burst-period", type=int, default=240,
                           help="time units between burst onsets")
    simulate_.add_argument("--burst-size", type=int, default=5,
                           help="workflows per burst")
    simulate_.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="JSON file with a list of arrival times (for --arrivals trace)",
    )
    simulate_.add_argument("--horizon", type=int, default=2880,
                           help="arrival horizon in time units")
    simulate_.add_argument("--slots", type=int, default=4,
                           help="number of cluster replicas workflows run on")
    simulate_.add_argument(
        "--policy", default="fifo", choices=list(POLICIES),
        help="online scheduling policy",
    )
    simulate_.add_argument("--threshold", type=float, default=0.5,
                           help="green fraction above which the carbon policy commits")
    simulate_.add_argument("--reschedule-period", type=int, default=120,
                           help="re-planning period of the reschedule policy")
    simulate_.add_argument(
        "--forecast", default="oracle", choices=list(FORECAST_MODELS),
        help="carbon forecast model the policies plan against",
    )
    simulate_.add_argument("--ma-window", type=int, default=120,
                           help="trailing window of the moving-average forecast")
    simulate_.add_argument(
        "--trace", default="solar", choices=sorted(SYNTHETIC_TRACE_PROFILES),
        help="shape of the synthetic daily carbon-intensity trace",
    )
    simulate_.add_argument("--trace-noise", type=float, default=0.0,
                           help="relative noise of the synthetic trace (seeded)")
    simulate_.add_argument("--families", nargs="+", default=["atacseq", "eager"],
                           choices=sorted(WORKFLOW_FAMILIES),
                           help="workflow families sampled per arrival")
    simulate_.add_argument("--tasks", nargs="+", type=int, default=[12],
                           help="workflow sizes sampled per arrival")
    simulate_.add_argument("--cluster", default="small", choices=list(CLUSTER_PRESETS))
    simulate_.add_argument("--deadline-factor", type=float, default=2.0,
                           help="relative deadline as a multiple of the ASAP makespan")
    simulate_.add_argument("--variant", default="pressWR-LS",
                           help="algorithm variant that plans committed workflows")
    simulate_.add_argument("--seed", type=int, default=0)
    simulate_.add_argument("--cache-size", type=int, default=256,
                           help="bound of the client's schedule cache")
    simulate_.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full simulation report to PATH as wire-format JSON",
    )

    variants = subparsers.add_parser(
        "variants", help="list the available algorithm variants"
    )
    variants.add_argument(
        "--json", action="store_true",
        help="print a machine-readable JSON listing instead of plain names",
    )
    return parser


def _checked(spec: InstanceSpec, parser: argparse.ArgumentParser) -> InstanceSpec:
    """Return *spec*, or exit through *parser* if it cannot be built."""
    try:
        spec.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return spec


def _spec_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> InstanceSpec:
    spec = InstanceSpec(
        family=args.family,
        num_tasks=args.tasks,
        cluster=args.cluster,
        scenario=args.scenario,
        deadline_factor=args.deadline_factor,
        seed=args.seed,
    )
    return _checked(spec, parser)


def _print_cost_table(instance, records: Sequence[RunRecord]) -> None:
    print(f"instance {instance.name}: {instance.num_tasks} tasks, deadline {instance.deadline}")
    rows = [
        [record.variant, record.carbon_cost, record.makespan,
         record.runtime_seconds * 1000.0]
        for record in sorted(records, key=lambda r: r.carbon_cost)
    ]
    print(format_table(rows, ["variant", "carbon cost", "makespan", "runtime ms"]))


def _scheduler_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> CaWoSched:
    try:
        return CaWoSched(block_size=args.block_size, window=args.window)
    except ValueError as exc:
        parser.error(str(exc))


def _run_schedule(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    scheduler = _scheduler_from_args(args, parser)
    instance = make_instance(_spec_from_args(args, parser))
    job = Job.from_instance(instance, variants=args.variants, scheduler=scheduler)
    result = Client().submit(job)
    _print_cost_table(instance, result.records)
    return 0


def _run_grid(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    grid = default_grid(
        families=args.families,
        sizes=args.sizes,
        clusters=args.clusters,
        scenarios=args.scenarios,
        deadline_factors=args.deadline_factors,
        seed=args.seed,
    )
    specs = [_checked(spec, parser) for spec in grid]
    names = args.variants if args.variants else variant_names(only_local_search=True)
    workers = f" over {args.jobs} workers" if args.jobs > 1 else ""
    print(f"running {len(specs)} instances × {len(names)} variants{workers} ...")
    records = run_grid(specs, variants=names, master_seed=args.seed, jobs=args.jobs)
    if args.out:
        save_records(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")

    ranks = rank_distribution(records, variants=names)
    rank_one = {name: ranks.get(name, {}).get(1, 0.0) for name in names}
    print("\nfraction of instances ranked first (ties shared):")
    print(format_mapping(rank_one, key_header="variant", value_header="rank-1 fraction",
                         sort_by_value=False))

    medians = median_cost_ratio(records, variants=[n for n in names if n != "ASAP"])
    if medians:
        print("\nmedian cost ratio vs ASAP:")
        print(format_mapping(medians, key_header="variant", value_header="median ratio"))
    return 0


def _run_batch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    path = Path(args.requests)
    if not path.exists():
        parser.error(f"requests file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf8"))
    except json.JSONDecodeError as exc:
        parser.error(f"requests file {path} is not valid JSON: {exc}")
    entries = data.get("requests") if isinstance(data, dict) else data
    if not isinstance(entries, list) or not entries:
        parser.error(
            f"requests file {path} must contain a non-empty list of requests "
            "(either top-level or under a 'requests' key)"
        )
    try:
        jobs = [Job.from_dict(entry) for entry in entries]
    except CaWoSchedError as exc:
        parser.error(f"requests file {path}: {exc}")

    if args.cache_size <= 0:
        parser.error(f"--cache-size must be positive, got {args.cache_size}")
    client = Client(jobs=args.jobs, cache_size=args.cache_size)
    # Facade errors (unknown variants, backend failures) propagate to
    # main(), which maps them onto the structured exit codes.
    results = client.submit_many(jobs)

    rows = []
    for index, result in enumerate(results):
        for record in result.records:
            rows.append(
                [index, record.instance, record.variant, record.carbon_cost,
                 "yes" if result.cached else "no"]
            )
    print(format_table(rows, ["request", "instance", "variant", "carbon cost", "cached"]))
    stats = client.stats()
    print(
        f"\n{len(jobs)} requests, {stats['computed']} scheduled, "
        f"{stats['hits']} served from cache "
        f"(cache {stats['size']}/{stats['max_size']}, {stats['evictions']} evictions)"
    )
    if args.out:
        save_payload("responses", [result.to_dict() for result in results], args.out)
        print(f"wrote {len(results)} responses to {args.out}")
    return 0


def _run_export(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    instance = make_instance(_spec_from_args(args, parser))
    save_instance(instance, args.out)
    print(
        f"wrote instance {instance.name} ({instance.num_tasks} tasks, "
        f"deadline {instance.deadline}) to {args.out}"
    )
    return 0


def _run_import(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    scheduler = _scheduler_from_args(args, parser)
    path = Path(args.path)
    if not path.exists():
        parser.error(f"instance file not found: {path}")
    try:
        instance = load_instance(path)
    except CaWoSchedError as exc:
        parser.error(f"instance file {path}: {exc}")
    job = Job.from_instance(instance, variants=args.variants, scheduler=scheduler)
    result = Client().submit(job)
    _print_cost_table(instance, result.records)
    return 0


def _run_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    arrival_times = None
    if args.arrivals == "trace":
        if not args.trace_file:
            parser.error("--arrivals trace needs --trace-file")
        path = Path(args.trace_file)
        if not path.exists():
            parser.error(f"trace file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf8"))
        except json.JSONDecodeError as exc:
            parser.error(f"trace file {path} is not valid JSON: {exc}")
        if not isinstance(data, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in data
        ):
            parser.error(f"trace file {path} must contain a JSON list of integer arrival times")
        arrival_times = tuple(data)

    # Every parsed option named like a configuration field is that field.
    names = {field.name for field in fields(SimulationConfig)}
    options = {name: value for name, value in vars(args).items() if name in names}
    options.update(
        families=tuple(args.families), tasks=tuple(args.tasks), arrival_times=arrival_times
    )
    try:
        config = SimulationConfig(**options)
    except CaWoSchedError as exc:
        parser.error(str(exc))

    print(
        f"simulating {args.horizon} time units: {args.arrivals} arrivals, "
        f"policy {args.policy}, forecast {args.forecast}, trace {args.trace}, "
        f"{args.slots} slots"
    )
    report = simulate(config)
    print(f"\n{len(report.jobs)} workflows completed, {len(report.events)} events")
    if report.metrics:
        rows = [[key, f"{value:.4f}"] for key, value in report.metrics.items()]
        print(format_table(rows, ["metric", "value"]))
    else:
        print("no arrivals — nothing to report")
    stats = report.service
    print(
        f"\nservice: {stats['solved']} schedules computed, "
        f"{stats['solve_hits']} served from cache"
    )
    if args.out:
        save_sim_report(report, args.out)
        print(f"wrote simulation report to {args.out}")
    return 0


def _describe_variant(spec: VariantSpec) -> dict:
    """Return one ``variants --json`` entry for *spec*."""
    if spec.is_baseline:
        phases = ["baseline"]
    elif spec.local_search:
        phases = ["greedy", "local-search"]
    else:
        phases = ["greedy"]
    return {
        "name": spec.name,
        "score": spec.base,
        "weighted": spec.weighted,
        "refined": spec.refined,
        "local_search": spec.local_search,
        "baseline": spec.is_baseline,
        "phases": phases,
        "supports_deadline": not spec.is_baseline,
        "cost_model": "makespan" if spec.is_baseline else "carbon",
        "builtin": True,
    }


def _list_variants(args: argparse.Namespace) -> int:
    if args.json:
        listing = [_describe_variant(ALL_VARIANTS[name]) for name in variant_names()]
        print(json.dumps(listing, indent=2))
        return 0
    for name in variant_names():
        print(name)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Facade errors map onto the structured exit codes of
    :mod:`repro.api.errors`: 2 = invalid job, 3 = unknown algorithm
    variant, 4 = a job failed while it ran.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "schedule":
            return _run_schedule(args, parser)
        if args.command == "grid":
            return _run_grid(args, parser)
        if args.command == "batch":
            return _run_batch(args, parser)
        if args.command == "export":
            return _run_export(args, parser)
        if args.command == "import":
            return _run_import(args, parser)
        if args.command == "simulate":
            return _run_simulate(args, parser)
        if args.command == "variants":
            return _list_variants(args)
    except ApiError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
