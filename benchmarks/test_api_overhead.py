"""Overhead of the repro.api facade over direct scheduler calls.

The facade adds payload serialisation, canonical fingerprinting, cache
bookkeeping and record derivation around every submission.  This benchmark
prints that toll on the paper's reference workload shape — one
``pressWR-LS`` run on a 30-task instance — by timing a fresh
``Job → Client`` submission (inline, ``execute_job``) against a direct
``CaWoSched.run`` of the same work.

The two paths are timed round by round in turn, the order reversed every
other round, and the overhead is the median over rounds of the facade/direct
time ratio.  The ratio is reported, not asserted: the facade's fixed cost
is a small fraction of one run, and on a shared host the median ratio
spreads by more than any bound that close to it could allow.

What the test asserts is the facade's work, which is deterministic: one
submission runs the scheduler exactly once per variant (an ``-LS`` variant
reusing its greedy parent's schedule), serialises the mapping, encodes the
DAG's canonical text and hashes the fingerprint once, and a resubmission of
the same problem is served from the cache without running anything again.
A second instance over the same DAG (the online simulator plans one
workflow against several profiles) reuses the DAG's serialised mapping,
canonical text and critical path.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from typing import List, Tuple

import repro.api.jobs as jobs_module
import repro.core.scheduler as scheduler_module
from repro.api import Client, Job
from repro.carbon.intervals import PowerProfile
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.mapping.mapping import Mapping
from repro.schedule.instance import ProblemInstance

from bench_utils import write_figure_output

VARIANT = "pressWR-LS"
SPEC = InstanceSpec("atacseq", 30, "small", "S1", 2.0, seed=0)
ROUNDS = 15


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


def _count_calls(monkeypatch, counts: Counter) -> None:
    """Count the facade's and the scheduler's units of work in *counts*."""

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(CaWoSched, "run", counting("run", CaWoSched.run))
    monkeypatch.setattr(CaWoSched, "_refine", counting("_refine", CaWoSched._refine))
    monkeypatch.setattr(Mapping, "to_dict", counting("Mapping.to_dict", Mapping.to_dict))
    monkeypatch.setattr(EnhancedDAG, "__init__", counting("EnhancedDAG", EnhancedDAG.__init__))
    # The DAG's canonical text is composed from its members by _graph_text.
    monkeypatch.setattr(
        jobs_module, "_graph_text", counting("graph_text", jobs_module._graph_text)
    )
    for module, name in (
        (scheduler_module, "greedy_schedule"),
        (scheduler_module, "local_search"),
        (scheduler_module, "check_schedule"),
        (scheduler_module, "carbon_cost"),
        (jobs_module, "instance_to_dict"),
        (jobs_module, "_problem_text"),
        (jobs_module, "_fingerprint"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))


def test_facade_overhead(benchmark, output_dir, monkeypatch):
    instance = make_instance(SPEC)
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

    # The work check, on a fresh instance so that nothing is memoised yet.
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts)
    fresh = make_instance(SPEC)
    client = Client()
    variants = ("pressWR", VARIANT)
    first = client.submit(Job.from_instance(fresh, variants=variants, scheduler=scheduler))
    assert not first.cached
    assert [record.variant for record in first.records] == list(variants)
    assert dict(counts) == {
        # One scheduler run for the greedy variant and one _refine call
        # for the -LS variant, which refines its parent's greedy schedule
        # instead of recomputing it; its cost comes from the local search.
        "run": 1,
        "_refine": 1,
        "greedy_schedule": 1,
        "local_search": 1,
        "check_schedule": 2,
        "carbon_cost": 1,
        # The DAG and its rows (instance construction), its serialised
        # mapping and canonical text, and one job fingerprint.  The live
        # job's problem text is the DAG's text with the profile spliced in,
        # so neither instance_to_dict nor _problem_text runs.
        "EnhancedDAG": 1,
        "Mapping.to_dict": 1,
        "graph_text": 1,
        "_fingerprint": 1,
    }

    counts.clear()
    again = client.submit(Job.from_instance(fresh, variants=variants, scheduler=scheduler))
    assert again.cached
    assert again.records == first.records
    # A new job object hashes its (memoised) problem text once more; nothing
    # is scheduled or serialised again.
    assert dict(counts) == {"_fingerprint": 1}

    # A second instance over the same DAG with another profile is a new
    # problem, scheduled afresh, but the DAG (with its rows), its serialised
    # mapping and its canonical text are not built again.
    counts.clear()
    other = ProblemInstance(fresh.dag, PowerProfile.constant(fresh.deadline + 10, 50))
    second = client.submit(Job.from_instance(other, variants=variants, scheduler=scheduler))
    assert not second.cached
    assert second.fingerprint != first.fingerprint
    assert dict(counts) == {
        "run": 1,
        "_refine": 1,
        "greedy_schedule": 1,
        "local_search": 1,
        "check_schedule": 2,
        "carbon_cost": 1,
        "_fingerprint": 1,
    }
