"""One-command benchmark of the CaWoSched reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline_grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``throughput`` — work units finished per second of measured time (an
  instance scheduled with every variant for ``offline_grid``, a simulated
  workflow arrival for the online workloads);
* ``latency_p50_ms`` / ``latency_p90_ms`` — median and 90th percentile of
  the wall time of one item (one scheduled instance, or one whole online
  simulation), over every item of the run;
* ``setup_s`` — median of nine cold starts, each a fresh interpreter that
  imports the library, sets the workload up and finishes its first item.

``--trace 1`` repeats the run with spans around every layer's entry points
(see ``tracing.py``) and reports per-layer self time and work counts per
work unit instead; the kept spans are written to
``perfbench/out/trace-<workload>-<seed>.json``.

Times are reported at a fixed reference machine speed.  On a shared host
the speed for the same work can drift by up to 2x over minutes (on a 2-vCPU
VM, identical items repeated for 150 s had an interquartile range of 0.47
of their median), far beyond any useful bound.  A short probe of
interpreter and NumPy work that does not touch the library
(:func:`speed_probe`) therefore runs between items, and every measured time
is multiplied by ``REFERENCE_PROBE_S / probe time`` at the moment it was
taken (for an item, the mean of the probe times just before and after it).
On the same items this cut the interquartile range to 0.11.  Each probe
time is the fastest of three probes, run with the garbage collector off
(:func:`probe_speed`): the probe runs none of the library's code, and with
the collector off the objects the library keeps alive cannot slow it.

The loop is closed: one item at a time, each started when the previous one
was checked, for ``--seconds`` seconds after two warm-up items.  After the
warm-up every live object is moved to the collector's permanent generation
(:func:`gc.freeze`): otherwise each full collection re-scans the whole
import-time heap, which took a varying 15-30% of the online items' time
and set their 90th percentile.

Every output is checked (see ``workloads.py``) and the first measured item
is run again at the end, which must reproduce its output exactly.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a ``src/repro`` tree
next to ``perfbench`` the command exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WARMUP_ITEMS = 2
#: Time :func:`speed_probe` takes at the reference machine speed.
REFERENCE_PROBE_S = 0.003
#: Probes taken at each measurement point; the fastest one counts.
PROBES = 3
COLD_STARTS = 9
# Times the set-up inside the fresh interpreter, then probes its speed there.
COLD_START_CODE = """
import sys, time
begin = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.cold_start(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - begin
import run
print(elapsed, run.probe_speed())
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads against this checkout's ``src`` tree, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")
    import workloads

    return workloads


def speed_probe() -> float:
    """Return the seconds a fixed mix of interpreter and NumPy work takes now.

    Dict, list, heap and sort operations plus small-array NumPy calls, the
    same kinds of work the library does, but none of the library's code.
    """
    begin = time.perf_counter()
    rng = random.Random(7)
    n = 400
    succ = {i: sorted(rng.sample(range(i + 1, n), min(3, n - i - 1))) for i in range(n)}
    depth = dict.fromkeys(range(n), 0)
    for i in range(n):
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
    heap = [(d, i) for i, d in depth.items()]
    heapq.heapify(heap)
    order = [heapq.heappop(heap)[1] for _ in range(n)]
    row = np.arange(n, dtype=np.int64)
    for i in order[:150]:
        int(np.maximum(row[i : i + 40] - 7, 0).sum())
    totals: dict = {}
    for i in range(10000):
        totals[i % 997] = totals.get(i % 997, 0) + i
    sorted(totals.items(), key=lambda kv: -kv[1])
    return time.perf_counter() - begin


def probe_speed() -> float:
    """Return the fastest of :data:`PROBES` speed probes, run with the collector off.

    With the collector off, objects the library keeps alive cannot slow the
    probe down; the minimum drops a probe that a context switch hit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(speed_probe() for _ in range(PROBES))
    finally:
        if enabled:
            gc.enable()


def cold_start_seconds(workload: str, seed: int) -> float:
    """Median scaled time of :data:`COLD_STARTS` fresh-interpreter set-ups.

    Each set-up imports the library, builds the workload and finishes its
    first item; it is scaled by the speed probe run in the same interpreter
    right after it.
    """
    samples = []
    for _ in range(COLD_STARTS):
        done = subprocess.run(
            [sys.executable, "-c", COLD_START_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed, probe = map(float, done.stdout.split()[-2:])
        samples.append(elapsed * REFERENCE_PROBE_S / probe)
    return statistics.median(samples)


def measure(workload, seconds: float, tracer=None):
    """Run checked items: two warm-up items, then *seconds* of measured ones.

    A *tracer* is installed when the measured items start.

    Returns the measured item durations (scaled to the reference speed),
    the work units they covered, the attempted and failed item counts, the
    first measured item with the digest of its output, and the scale of the
    whole run (reference over median probe time).
    """
    durations, units, probes = [], 0, []
    attempted = failed = 0
    first = None
    begin = None
    while begin is None or time.perf_counter() - begin < seconds:
        if begin is None and attempted == WARMUP_ITEMS:
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.install()
            probes.append(probe_speed())
            begin = time.perf_counter()
        item = workload.next_input()
        attempted += 1
        try:
            started = time.perf_counter()
            if tracer is None or begin is None:
                output = workload.run(item)
            else:
                with tracer.item():
                    output = workload.run(item)
            elapsed = time.perf_counter() - started
            if begin is not None:
                probes.append(probe_speed())
            covered = workload.check(item, output)
        except Exception:  # a failed item is counted and the run goes on
            failed += 1
            traceback.print_exc()
            continue
        if begin is None:
            continue
        durations.append(elapsed * REFERENCE_PROBE_S / ((probes[-2] + probes[-1]) / 2))
        units += covered
        if first is None:
            first = (item, workload.digest(output))
    return durations, units, attempted, failed, first, REFERENCE_PROBE_S / statistics.median(probes)


def reproducible(workloads, name: str, seed: int, first) -> bool:
    """Re-run the first measured item from a fresh workload; outputs must match."""
    if first is None:
        return False
    item, digest = first
    fresh = workloads.WORKLOADS[name](seed)
    try:
        return fresh.digest(fresh.run(item)) == digest
    except Exception:  # a failing re-run is a wrong output, reported as such
        traceback.print_exc()
        return False


def end_to_end(durations, units: int, setup: float):
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
    return {
        "throughput": (units / sum(durations), "1/s"),
        "latency_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup, "s"),
    }


def per_layer(tracer, durations, units: int, scale: float):
    per_unit = 1.0 / max(units, 1)
    ms_per_unit = 1e3 * scale * per_unit
    metrics = {f"{layer}_ms": (tracer.self_seconds[layer] * ms_per_unit, "ms") for layer in LAYERS}
    lookups = tracer.calls["facade_client"]
    hits = max(lookups - tracer.calls["facade_backend"], 0)
    metrics.update(
        {
            "unattributed_ms": (tracer.self_seconds["item"] * ms_per_unit, "ms"),
            "gc_ms": (tracer.self_seconds["gc"] * ms_per_unit, "ms"),
            "gc_passes": (tracer.calls["gc"] * per_unit, "count"),
            "traced_ms": (sum(durations) * 1e3 * per_unit, "ms"),
            "sched_runs": (tracer.calls["sched_other"] * per_unit, "count"),
            "sched_gain_profile_calls": (tracer.calls["sched_gain_profile"] * per_unit, "count"),
            "sim_plans": (tracer.calls["sim_plan"] * per_unit, "count"),
            "facade_lookups": (lookups * per_unit, "count"),
            "cache_hits": (hits * per_unit, "count"),
            "cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        }
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        sys.exit(f"error: unknown workload {args.workload!r}; known: {known}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    tracer = Tracer() if args.trace else None
    try:
        durations, units, attempted, failed, first, scale = measure(
            workload, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
            for target in tracer.missing:
                print(f"warning: trace target {target} not found", file=sys.stderr)
    if not durations:
        sys.exit(f"error: every one of {attempted} items failed")
    correct = failed == 0 and reproducible(workloads, args.workload, args.seed, first)

    if tracer is None:
        metrics = end_to_end(durations, units, cold_start_seconds(args.workload, args.seed))
    else:
        metrics = per_layer(tracer, durations, units, scale)
        out = BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.dump(workload=args.workload, seed=args.seed)))

    print(
        f"{args.workload} seed {args.seed}: {len(durations)} items, {units} units "
        f"in {sum(durations):.3f} scaled s; failed {failed}; correct {correct}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
