#!/usr/bin/env python
"""Alternating perfbench pairs between two git revisions of this repository.

Each revision is exported with ``git archive`` into its own directory and
``perfbench/run.py`` runs there, one run at a time.  For every workload and
seed the two sides run back to back (a *pair*); the side that runs first
alternates from pair to pair, so a drift in the host's speed does not
favour either side.  The result is appended to a JSON list (by default
``benchmarks/output/BENCH_perfbench.json``): both git SHAs, the run
settings and, per workload, the seeds, each side's values with their
median and quartiles per end-to-end metric, and how many pairs the change
won.

Usage::

    python benchmarks/perf_pairs.py BASE CHANGE --workloads offline_grid \\
        --seeds 301-310 [--workdir DIR] [--out FILE]

``BASE`` and ``CHANGE`` are anything ``git rev-parse`` accepts (``HEAD~1``,
a SHA, a branch).  Uncommitted changes are not measured.  Every run lasts
the benchmark's ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "benchmarks" / "output" / "BENCH_perfbench.json"
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: End-to-end metric name -> whether a higher value is better.
METRICS = {"throughput": True, "latency_p50_ms": False, "latency_p90_ms": False, "setup_s": False}


def parse_seeds(text: str) -> List[int]:
    """Parse ``"301-310"`` or ``"1,4,7"`` into a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def export(revision: str, directory: Path) -> str:
    """Export *revision* into *directory* and return its full SHA."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    directory.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """Run one untraced perfbench measurement and return its end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"]:
        raise SystemExit(f"{checkout.name} {workload} seed {seed}: incorrect or failed items")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def summary(values: List[float]) -> Dict[str, object]:
    """Median and quartiles of *values* (exclusive method), with the values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="revision of the parent side")
    parser.add_argument("change", help="revision of the changed side")
    parser.add_argument("--workloads", nargs="+", default=["offline_grid"])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("301-310"))
    parser.add_argument("--workdir", type=Path, help="where the exports go, created if missing (default: a temp dir)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        base_dir, change_dir = Path(scratch) / "base", Path(scratch) / "change"
        base_sha, change_sha = export(args.base, base_dir), export(args.change, change_dir)
        workloads = {}
        for workload in args.workloads:
            sides: Dict[str, List[Dict[str, float]]] = {"base": [], "change": []}
            for pair, seed in enumerate(args.seeds):
                order = [("base", base_dir), ("change", change_dir)]
                for side, checkout in order if pair % 2 == 0 else order[::-1]:
                    sides[side].append(run_once(checkout, workload, seed))
                base, change = sides["base"][-1], sides["change"][-1]
                print(f"{workload} seed {seed}: throughput {base['throughput']:.1f} -> "
                      f"{change['throughput']:.1f}", file=sys.stderr)
            metrics = {}
            for name, higher in METRICS.items():
                base = [run[name] for run in sides["base"]]
                change = [run[name] for run in sides["change"]]
                wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
                metrics[name] = {
                    "better": "higher" if higher else "lower",
                    "base": summary(base),
                    "change": summary(change),
                    "change_wins": wins,
                }
            workloads[workload] = {"seeds": args.seeds, "metrics": metrics}

    entry = {
        "base_sha": base_sha,
        "change_sha": change_sha,
        "seconds": SECONDS,
        "trace": 0,
        "workloads": workloads,
    }
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=1) + "\n")
    for workload, data in workloads.items():
        for name, metric in data["metrics"].items():
            print(f"{workload} {name}: {metric['base']['median']:.3f} -> "
                  f"{metric['change']['median']:.3f} (base IQR "
                  f"{metric['base']['q3'] - metric['base']['q1']:.3f}, change wins "
                  f"{metric['change_wins']}/{len(data['seeds'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
