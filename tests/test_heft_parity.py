"""Parity suite for the table-driven HEFT passes.

``heft_mapping`` and ``carbon_aware_heft_mapping`` read task durations from
a per-call duration table and each task's incoming edges once per task, and
skip an idle processor whose ``(speed, total_power)`` class already gave an
idle candidate.
This module keeps the original per-processor algorithms — every duration
through ``ProcessorSpec.execution_time`` and every incoming edge re-read
for every candidate processor — as test-only references and pins that the
library returns an identical :class:`~repro.mapping.heft.HeftResult`: ranks
(values and order), start and finish times, makespan and mapping.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.carbon_heft import carbon_aware_heft_mapping
from repro.mapping.heft import _earliest_slot, _insert_slot, heft_mapping
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.platform_.presets import (
    scaled_large_cluster,
    scaled_small_cluster,
    single_processor_cluster,
    uniform_cluster,
)
from repro.platform_.processor import ProcessorSpec
from repro.workflow.dag import Workflow
from repro.workflow.generators import generate_workflow

from nx_oracle import to_networkx


# --------------------------------------------------------------------------- #
# Test-only references: the per-processor HEFT passes
# --------------------------------------------------------------------------- #
def _reference_ranks(workflow: Workflow, cluster: Cluster, bandwidth: float) -> Dict:
    processors = cluster.processors()
    num_procs = len(processors)
    cross_probability = (num_procs - 1) / num_procs if num_procs > 1 else 0.0
    avg_cost = {}
    for task in workflow.tasks():
        work = workflow.work(task)
        avg_cost[task] = sum(p.execution_time(work) for p in processors) / num_procs
    ranks: Dict[Hashable, float] = {}
    for task in reversed(workflow.topological_order()):
        best_successor = 0.0
        for successor in workflow.successors(task):
            comm = workflow.data(task, successor) / bandwidth * cross_probability
            best_successor = max(best_successor, comm + ranks[successor])
        ranks[task] = avg_cost[task] + best_successor
    return ranks


def _reference_heft(
    workflow: Workflow,
    cluster: Cluster,
    bandwidth: float = 1.0,
    power_weight: Optional[float] = None,
) -> Tuple[Dict, Dict, Dict, int, Dict]:
    """Plain HEFT (``power_weight=None``) or the carbon-aware first pass."""
    assert nx.is_directed_acyclic_graph(to_networkx(workflow))
    assert all(type(workflow.work(task)) is int and workflow.work(task) > 0 for task in workflow)
    assert all(
        type(workflow.data(u, v)) is int and workflow.data(u, v) >= 0
        for u, v in workflow.dependencies()
    )
    ranks = _reference_ranks(workflow, cluster, bandwidth)
    priority: List[Hashable] = sorted(workflow.tasks(), key=lambda task: -ranks[task])
    processors = cluster.processors()
    max_active_power = max(spec.total_power for spec in processors) or 1
    slowest = min(spec.speed for spec in processors)
    horizon_scale = max(
        1.0, workflow.total_work() / slowest + workflow.total_data() / bandwidth
    )
    assignment: Dict[Hashable, Hashable] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}
    busy: Dict[Hashable, List[Tuple[int, int, Hashable]]] = {p.name: [] for p in processors}

    for task in priority:
        work = workflow.work(task)
        best_score: Optional[float] = None
        best: Optional[Tuple[int, int, Hashable]] = None
        for proc in processors:
            duration = proc.execution_time(work)
            ready = 0
            for predecessor in workflow.predecessors(task):
                comm = 0
                if assignment[predecessor] != proc.name:
                    volume = workflow.data(predecessor, task)
                    comm = int(-(-volume // bandwidth)) if volume > 0 else 0
                ready = max(ready, finish_times[predecessor] + comm)
            start = _earliest_slot(busy[proc.name], ready, duration)
            finish = start + duration
            if power_weight is None:
                if best is None or (finish, start) < (best[0], best[1]):
                    best = (finish, start, proc.name)
                continue
            energy = duration * proc.total_power
            score = (1.0 - power_weight) * (finish / horizon_scale) + power_weight * (
                energy / (horizon_scale * max_active_power)
            )
            if best_score is None or (score, finish, start) < (
                best_score,
                best[0] if best else 0,
                best[1] if best else 0,
            ):
                best_score = score
                best = (finish, start, proc.name)
        assert best is not None
        finish, start, proc_name = best
        assignment[task] = proc_name
        start_times[task] = start
        finish_times[task] = finish
        _insert_slot(busy[proc_name], (start, finish, task))

    processor_order = {
        proc_name: [task for _, _, task in sorted(slots)]
        for proc_name, slots in busy.items()
        if slots
    }
    mapping = Mapping(workflow, cluster, assignment, processor_order=processor_order)
    makespan = max(finish_times.values(), default=0)
    return ranks, start_times, finish_times, makespan, mapping.to_dict()


def assert_same_result(result, reference) -> None:
    ranks, start_times, finish_times, makespan, mapping = reference
    assert list(result.ranks.items()) == list(ranks.items())
    assert list(result.start_times.items()) == list(start_times.items())
    assert list(result.finish_times.items()) == list(finish_times.items())
    assert result.makespan == makespan
    assert result.mapping.to_dict() == mapping


def check_parity(workflow: Workflow, cluster: Cluster) -> None:
    """The library (bandwidth fixed at 1) matches the reference at bandwidth 1."""
    assert_same_result(
        heft_mapping(workflow, cluster),
        _reference_heft(workflow, cluster, 1.0),
    )
    for weight in (0.0, 0.5):
        assert_same_result(
            carbon_aware_heft_mapping(workflow, cluster, power_weight=weight),
            _reference_heft(workflow, cluster, 1.0, power_weight=weight),
        )


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def workflows(draw) -> Workflow:
    """Random DAGs; few distinct works and data volumes make rank ties common."""
    num_tasks = draw(st.integers(1, 14))
    workflow = Workflow("hyp")
    for index in range(num_tasks):
        workflow.add_task(f"t{index}", work=draw(st.sampled_from([1, 2, 3, 7, 20])))
    for target in range(1, num_tasks):
        sources = draw(st.sets(st.integers(0, target - 1), max_size=3))
        for source in sorted(sources):
            data = draw(st.sampled_from([0, 0, 1, 4, 9]))
            workflow.add_dependency(f"t{source}", f"t{target}", data=data)
    return workflow


@st.composite
def clusters(draw) -> Cluster:
    """One to five processors; a small speed set makes equal speeds common."""
    num_procs = draw(st.integers(1, 5))
    processors = [
        ProcessorSpec(
            f"p{index}",
            speed=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])),
            p_idle=draw(st.integers(0, 5)),
            p_work=draw(st.integers(0, 20)),
        )
        for index in range(num_procs)
    ]
    return Cluster(processors, name="hyp")


@st.composite
def replicated_clusters(draw) -> Cluster:
    """Replicas of one to three processor types, plus a type that shares a speed.

    Replicas of a type give equal idle candidates, which the selection phase
    skips after the first; the extra type has the speed of an existing type
    but another power, so it is never skipped and carbon-aware HEFT's power
    term tells the two apart.
    """
    types = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.integers(0, 5), st.integers(0, 20)
            ),
            min_size=1,
            max_size=3,
        )
    )
    speed, p_idle, p_work = draw(st.sampled_from(types))
    types.append((speed, p_idle, p_work + draw(st.integers(1, 10))))
    counts = [draw(st.integers(1, 4)) for _ in types]
    # Interleave the replicas so that equal processors are not always adjacent.
    replicas = [index for index, count in enumerate(counts) for _ in range(count)]
    order = draw(st.permutations(replicas))
    processors = [
        ProcessorSpec(f"p{position}", speed=types[index][0], p_idle=types[index][1],
                      p_work=types[index][2])
        for position, index in enumerate(order)
    ]
    return Cluster(processors, name="replicated")


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
class TestHeftParity:
    @given(workflow=workflows(), cluster=clusters())
    @settings(max_examples=150, deadline=None)
    def test_random_workflows(self, workflow, cluster):
        check_parity(workflow, cluster)

    @given(workflow=workflows(), cluster=replicated_clusters())
    @settings(max_examples=150, deadline=None)
    def test_replicated_processor_types(self, workflow, cluster):
        check_parity(workflow, cluster)

    @given(family=st.sampled_from(["atacseq", "eager", "methylseq", "forkjoin",
                                   "layered", "random"]),
           num_tasks=st.integers(8, 40),
           preset=st.sampled_from(["small", "large"]),
           seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_generated_families_on_presets(self, family, num_tasks, preset, seed):
        workflow = generate_workflow(family, num_tasks, rng=seed)
        cluster = scaled_small_cluster() if preset == "small" else scaled_large_cluster()
        check_parity(workflow, cluster)

    def test_zero_data_edges(self):
        workflow = Workflow("zero-data")
        for name in "abcd":
            workflow.add_task(name, work=3)
        for source, target in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            workflow.add_dependency(source, target, data=0)
        check_parity(workflow, scaled_small_cluster())

    def test_equal_rank_ties(self):
        # Identical parallel branches: every branch task has the same rank.
        workflow = Workflow("ties")
        workflow.add_task("src", work=1)
        workflow.add_task("sink", work=1)
        for index in range(6):
            workflow.add_task(f"b{index}", work=4)
            workflow.add_dependency("src", f"b{index}", data=2)
            workflow.add_dependency(f"b{index}", "sink", data=2)
        result = heft_mapping(workflow, uniform_cluster(3))
        assert len({result.ranks[f"b{index}"] for index in range(6)}) == 1
        check_parity(workflow, uniform_cluster(3))

    def test_single_processor(self):
        workflow = generate_workflow("eager", 20, rng=3)
        check_parity(workflow, single_processor_cluster())

    def test_equal_speed_processors(self):
        workflow = generate_workflow("atacseq", 25, rng=5)
        check_parity(workflow, uniform_cluster(4))

    @pytest.mark.parametrize("preset", [scaled_small_cluster, scaled_large_cluster])
    def test_presets(self, preset):
        workflow = generate_workflow("methylseq", 60, rng=7)
        check_parity(workflow, preset())
