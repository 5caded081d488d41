"""Overhead of the repro.api facade over direct scheduler calls.

The facade adds payload serialisation, canonical fingerprinting, cache
bookkeeping and record derivation around every submission.  This benchmark
quantifies that toll on the paper's reference workload shape — one
``pressWR-LS`` run on a 30-task instance — by timing a fresh
``Job → Client`` submission (inline, ``execute_job``) against a direct
``CaWoSched.run`` of the same work, and asserts the facade stays within 10%
of the direct path.

The two paths are timed round by round in turn, the order reversed every
other round, and the overhead is the median over rounds of the facade/direct
time ratio.  The two calls of a round run back to back, so a drift of the
host's speed during the measurement affects both sides of each ratio alike;
comparing each side's best-of-N time instead lets the two minima fall in
different speed regimes.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

from repro.api import Client, Job
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table

from bench_utils import write_figure_output

VARIANT = "pressWR-LS"
ROUNDS = 15
MAX_OVERHEAD = 0.10


def _paired_times(first, second, rounds: int = ROUNDS) -> List[Tuple[float, float]]:
    """Per round, the times of one call of *first* and one of *second*.

    The calling order is reversed every other round, so neither side always
    runs first.
    """
    pairs = []
    order = [(0, first), (1, second)]
    for _ in range(rounds):
        times = [0.0, 0.0]
        for side, fn in order:
            begin = time.perf_counter()
            fn()
            times[side] = time.perf_counter() - begin
        pairs.append((times[0], times[1]))
        order.reverse()
    return pairs


def test_facade_overhead(benchmark, output_dir):
    instance = make_instance(InstanceSpec("atacseq", 30, "small", "S1", 2.0, seed=0))
    scheduler = CaWoSched()

    def direct():
        return scheduler.run(instance, VARIANT)

    def facade():
        # A fresh client and job per round: every submission pays the full
        # freight (payload build, fingerprint, validation, record
        # derivation) with no cache hits.
        client = Client(cache_size=2)
        job = Job.from_instance(instance, variants=(VARIANT,), scheduler=scheduler)
        return client.submit(job)

    # Warm-up (imports, first-run allocations) outside the timed section.
    direct()
    facade()

    pairs = _paired_times(direct, facade)
    overhead = statistics.median(facade_t / direct_t for direct_t, facade_t in pairs) - 1.0
    direct_best = min(direct_t for direct_t, _ in pairs)
    facade_best = min(facade_t for _, facade_t in pairs)

    benchmark.pedantic(facade, rounds=3, iterations=1)

    rows = [
        ["tasks", instance.num_tasks],
        ["variant", VARIANT],
        ["direct best (ms)", round(direct_best * 1000.0, 3)],
        ["facade best (ms)", round(facade_best * 1000.0, 3)],
        ["median overhead", f"{overhead * 100.0:+.2f}%"],
    ]
    text = format_table(rows, ["quantity", "value"])
    print("\nFacade overhead (Job + Client vs CaWoSched.run)\n" + text)
    write_figure_output(output_dir, "api_overhead", text)

    assert overhead < MAX_OVERHEAD, (
        f"facade adds {overhead * 100.0:.1f}% over direct scheduling "
        f"(budget {MAX_OVERHEAD * 100.0:.0f}%)"
    )
