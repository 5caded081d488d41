"""Tests for the HEFT mapping algorithm."""

from __future__ import annotations

import pytest

from repro.mapping.heft import _duration_table, _ranks, heft_mapping
from repro.platform_.presets import scaled_small_cluster, uniform_cluster
from repro.workflow.generators import (
    atacseq_like_workflow,
    chain_workflow,
    fork_join_workflow,
)


def upward_ranks(workflow, cluster):
    """Return HEFT's upward rank of every task of *workflow* on *cluster*."""
    processors = cluster.processors()
    return _ranks(workflow, _duration_table(workflow, processors), len(processors))


class TestUpwardRanks:
    def test_rank_decreases_along_edges(self, diamond_workflow_fixed, two_proc_cluster):
        ranks = upward_ranks(diamond_workflow_fixed, two_proc_cluster)
        for source, target in diamond_workflow_fixed.dependencies():
            assert ranks[source] > ranks[target]

    def test_sink_rank_equals_average_cost(self, diamond_workflow_fixed, two_proc_cluster):
        ranks = upward_ranks(diamond_workflow_fixed, two_proc_cluster)
        # Sink "d" has work 2 on two unit-speed processors -> average cost 2.
        assert ranks["d"] == pytest.approx(2.0)

    def test_single_processor_no_comm_term(self, chain_workflow_fixed, single_cluster):
        ranks = upward_ranks(chain_workflow_fixed, single_cluster)
        # On one processor the cross probability is 0, so the rank of the
        # first task is the total chain work.
        assert ranks["t0"] == pytest.approx(2 + 3 + 1 + 2)


class TestHeftMapping:
    def test_produces_valid_mapping(self):
        workflow = atacseq_like_workflow(50, rng=0)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster)
        mapping = result.mapping
        # Every task mapped, every task ordered exactly once.
        assert set(mapping.assignment()) == set(workflow.tasks())
        ordered = [t for proc in mapping.processor_order().values() for t in proc]
        assert sorted(map(str, ordered)) == sorted(map(str, workflow.tasks()))

    def test_start_times_respect_precedence(self):
        workflow = fork_join_workflow(4, stages=2, rng=1)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster)
        for source, target in workflow.dependencies():
            same_proc = result.mapping.processor_of(source) == result.mapping.processor_of(target)
            comm = 0 if same_proc else workflow.data(source, target)
            assert result.start_times[target] >= result.finish_times[source] + comm

    def test_no_overlap_on_any_processor(self):
        workflow = atacseq_like_workflow(40, rng=2)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster)
        for proc, tasks in result.mapping.processor_order().items():
            intervals = sorted(
                (result.start_times[t], result.finish_times[t]) for t in tasks
            )
            for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
                assert s2 >= f1

    def test_makespan_is_max_finish(self):
        workflow = chain_workflow(6, rng=0)
        cluster = uniform_cluster(3)
        result = heft_mapping(workflow, cluster)
        assert result.makespan == max(result.finish_times.values())

    def test_chain_on_fast_processor(self):
        # With no parallelism HEFT should put the whole chain on the fastest
        # processor (it always minimises EFT and there is no contention).
        workflow = chain_workflow(5, rng=3)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster)
        used = {result.mapping.processor_of(t) for t in workflow.tasks()}
        assert len(used) == 1
        proc = cluster.processor(next(iter(used)))
        assert proc.speed == max(p.speed for p in cluster.processors())

    def test_parallel_tasks_spread_over_processors(self):
        workflow = fork_join_workflow(8, stages=1, rng=0)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster)
        used = {result.mapping.processor_of(t) for t in workflow.tasks()}
        assert len(used) > 1

    def test_deterministic(self):
        workflow = atacseq_like_workflow(40, rng=5)
        cluster = scaled_small_cluster()
        a = heft_mapping(workflow, cluster)
        b = heft_mapping(workflow, cluster)
        assert a.mapping.assignment() == b.mapping.assignment()
        assert a.makespan == b.makespan
