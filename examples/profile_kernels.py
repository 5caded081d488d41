"""Reproduce the hot-path breakdown of the scheduling kernels.

Profiles repeated full scheduling calls (greedy phase + local search) with
``cProfile`` and prints the top functions by cumulative time — the breakdown
that motivated the batch-gain / incremental-EST-LST kernel work.  Run with
``--json`` to dump the rows machine-readably.

Examples
--------
Default breakdown (pressWR-LS on a 60-task workflow)::

    PYTHONPATH=src python examples/profile_kernels.py

JSON output::

    PYTHONPATH=src python examples/profile_kernels.py --json -
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", default="pressWR-LS", help="algorithm variant")
    parser.add_argument("--family", default="atacseq", help="workflow family")
    parser.add_argument("--tasks", type=int, default=60, help="workflow size")
    parser.add_argument("--repeats", type=int, default=20, help="profiled calls")
    parser.add_argument("--top", type=int, default=15, help="functions to show")
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the profile rows as JSON to PATH ('-' for stdout)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    instance = make_instance(
        InstanceSpec(args.family, args.tasks, "small", "S1", 2.0, seed=0),
        master_seed=0,
    )
    scheduler = CaWoSched()
    scheduler.schedule(instance, args.variant)  # warm caches before profiling

    begin = time.perf_counter()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.repeats):
        scheduler.schedule(instance, args.variant)
    profiler.disable()
    elapsed = time.perf_counter() - begin

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(
        f"{args.variant} on {args.family}/{args.tasks}: "
        f"{elapsed / args.repeats * 1e3:.2f} ms per call over {args.repeats} calls"
    )

    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, line, name = func
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{line}({name})",
                "ncalls": nc,
                "tottime_ms": round(tottime * 1e3, 3),
                "cumtime_ms": round(cumtime * 1e3, 3),
            }
        )
    rows.sort(key=lambda row: -row["cumtime_ms"])
    top = rows[: args.top]

    width = max(len(row["function"]) for row in top)
    print(f"{'function':<{width}}  {'ncalls':>8}  {'tottime ms':>10}  {'cumtime ms':>10}")
    for row in top:
        print(
            f"{row['function']:<{width}}  {row['ncalls']:>8}  "
            f"{row['tottime_ms']:>10.3f}  {row['cumtime_ms']:>10.3f}"
        )

    if args.json:
        payload = {
            "variant": args.variant,
            "family": args.family,
            "tasks": args.tasks,
            "repeats": args.repeats,
            "ms_per_call": round(elapsed / args.repeats * 1e3, 3),
            "functions": top,
        }
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
