"""Tests for the workflow generators (generic and nf-core-like families)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.utils.errors import InvalidWorkflowError
from repro.workflow.generators import (
    WORKFLOW_FAMILIES,
    assign_random_weights,
    atacseq_like_workflow,
    bacass_like_workflow,
    chain_workflow,
    diamond_workflow,
    eager_like_workflow,
    fork_join_workflow,
    generate_workflow,
    independent_tasks_workflow,
    layered_random_workflow,
    methylseq_like_workflow,
    out_tree_workflow,
    random_dag_workflow,
)

from nx_oracle import to_networkx


class TestGenericGenerators:
    def test_chain_structure(self):
        wf = chain_workflow(5, rng=0)
        assert wf.number_of_tasks == 5
        assert wf.number_of_dependencies == 4
        assert len(wf.sources()) == 1
        assert len(wf.sinks()) == 1
        assert wf.depth() == 5

    def test_chain_single_task(self):
        wf = chain_workflow(1, rng=0)
        assert wf.number_of_tasks == 1
        assert wf.number_of_dependencies == 0

    def test_fork_join_structure(self):
        wf = fork_join_workflow(4, stages=2, rng=0)
        # source + sink + 4 branches * 2 stages
        assert wf.number_of_tasks == 2 + 8
        assert wf.sources() == ["source"]
        assert wf.sinks() == ["sink"]
        assert wf.depth() == 4

    def test_diamond_is_forkjoin_with_one_stage(self):
        wf = diamond_workflow(3, rng=0)
        assert wf.number_of_tasks == 5
        assert wf.depth() == 3

    def test_layered_random_size_and_acyclic(self):
        wf = layered_random_workflow(30, num_layers=5, edge_probability=0.4, rng=1)
        assert wf.number_of_tasks == 30
        assert nx.is_directed_acyclic_graph(to_networkx(wf))
        # Each layer is connected to the next: single weakly connected block
        # is not guaranteed, but there must be at least 25 edges (one per
        # non-first-layer task).
        assert wf.number_of_dependencies >= 24

    def test_layered_random_determinism(self):
        a = layered_random_workflow(25, rng=7)
        b = layered_random_workflow(25, rng=7)
        assert a.dependencies() == b.dependencies()
        assert [a.work(t) for t in a.tasks()] == [b.work(t) for t in b.tasks()]

    def test_out_tree_node_count(self):
        wf = out_tree_workflow(3, branching=2, rng=0)
        assert wf.number_of_tasks == 1 + 2 + 4
        assert len(wf.sources()) == 1
        assert len(wf.sinks()) == 4

    def test_random_dag_edge_probability_extremes(self):
        empty = random_dag_workflow(10, edge_probability=0.0, rng=0)
        full = random_dag_workflow(10, edge_probability=1.0, rng=0)
        assert empty.number_of_dependencies == 0
        assert full.number_of_dependencies == 45

    def test_independent_tasks_with_given_works(self):
        wf = independent_tasks_workflow(3, works=[5, 6, 7])
        assert [wf.work(t) for t in wf.tasks()] == [5, 6, 7]
        assert wf.number_of_dependencies == 0

    def test_independent_tasks_wrong_length(self):
        with pytest.raises(InvalidWorkflowError):
            independent_tasks_workflow(3, works=[5, 6])


class TestWeightAssignment:
    def test_weights_positive(self):
        wf = layered_random_workflow(40, rng=3)
        assert all(wf.work(t) >= 1 for t in wf.tasks())
        assert all(wf.data(u, v) >= 0 for u, v in wf.dependencies())

    def test_vertex_weights_dominate_edge_weights_on_average(self):
        wf = layered_random_workflow(200, rng=5)
        avg_work = wf.total_work() / wf.number_of_tasks
        avg_data = wf.total_data() / max(1, wf.number_of_dependencies)
        assert avg_work > avg_data

    def test_reassignment_is_deterministic_per_seed(self):
        wf1 = chain_workflow(10, rng=0)
        wf2 = chain_workflow(10, rng=1)
        assign_random_weights(wf1, rng=11)
        assign_random_weights(wf2, rng=11)
        assert [wf1.work(t) for t in wf1.tasks()] == [wf2.work(t) for t in wf2.tasks()]


class TestFamilies:
    @pytest.mark.parametrize(
        "factory",
        [atacseq_like_workflow, methylseq_like_workflow, eager_like_workflow, bacass_like_workflow],
    )
    def test_families_are_valid_dags(self, factory):
        wf = factory(80, rng=0)
        assert nx.is_directed_acyclic_graph(to_networkx(wf))
        assert all(type(wf.work(t)) is int and wf.work(t) >= 1 for t in wf.tasks())
        assert all(type(wf.data(u, v)) is int and wf.data(u, v) >= 0 for u, v in wf.dependencies())
        assert len(wf.sources()) == 1  # input_check

    def test_family_size_roughly_matches_target(self):
        for family in ("atacseq", "methylseq", "eager"):
            wf = generate_workflow(family, 100, rng=0)
            assert 60 <= wf.number_of_tasks <= 140

    def test_family_has_merge_stage_reachable_from_all_samples(self):
        wf = atacseq_like_workflow(60, rng=0)
        sinks = wf.sinks()
        assert sinks == ["multiqc"]

    def test_generate_workflow_unknown_family(self):
        with pytest.raises(InvalidWorkflowError):
            generate_workflow("does-not-exist", 10)

    def test_registry_contains_paper_families(self):
        for family in ("atacseq", "methylseq", "eager", "bacass"):
            assert family in WORKFLOW_FAMILIES

    def test_family_determinism(self):
        a = eager_like_workflow(70, rng=9)
        b = eager_like_workflow(70, rng=9)
        assert a.tasks() == b.tasks()
        assert [a.work(t) for t in a.tasks()] == [b.work(t) for t in b.tasks()]

    def test_categories_are_labelled(self):
        wf = methylseq_like_workflow(40, rng=2)
        categories = {wf.category(t) for t in wf.tasks()}
        assert "bismark_align" in categories
        assert "merge" in categories
