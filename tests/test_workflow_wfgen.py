"""Tests for WfGen-style replication / scaling of model workflows."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.utils.errors import InvalidWorkflowError
from repro.workflow.dag import Workflow
from repro.workflow.generators import bacass_like_workflow, chain_workflow
from repro.workflow.wfgen import replicate_workflow, scale_workflow

from nx_oracle import to_networkx


@pytest.fixture
def model() -> Workflow:
    return bacass_like_workflow(25, rng=0)


class TestReplicate:
    def test_task_count(self, model):
        replicated = replicate_workflow(model, 3, rng=0)
        assert replicated.number_of_tasks == 3 * model.number_of_tasks + 2

    def test_is_dag_and_connected(self, model):
        replicated = replicate_workflow(model, 2, rng=0)
        assert nx.is_directed_acyclic_graph(to_networkx(replicated))
        assert nx.is_weakly_connected(to_networkx(replicated))

    def test_staging_and_collect_exist(self, model):
        replicated = replicate_workflow(model, 2, rng=0)
        assert replicated.sources() == ["staging"]
        assert replicated.sinks() == ["collect"]

    def test_weights_copied_when_not_reweighting(self, model):
        replicated = replicate_workflow(model, 1, reweight=False)
        for task in model.tasks():
            assert replicated.work(f"r0:{task}") == model.work(task)

    def test_empty_model_rejected(self):
        with pytest.raises(InvalidWorkflowError):
            replicate_workflow(Workflow("empty"), 2)

    def test_invalid_replicas(self, model):
        with pytest.raises(ValueError):
            replicate_workflow(model, 0)


class TestScale:
    def test_scales_up_to_roughly_target(self, model):
        scaled = scale_workflow(model, 150, rng=0)
        assert 100 <= scaled.number_of_tasks <= 200

    def test_exact_trimming(self, model):
        target = 2 * model.number_of_tasks  # below 2 replicas + glue
        scaled = scale_workflow(model, target, rng=0, exact=True)
        assert scaled.number_of_tasks == target
        assert nx.is_directed_acyclic_graph(to_networkx(scaled))

    def test_scale_down_keeps_single_replica(self):
        model = chain_workflow(10, rng=0)
        scaled = scale_workflow(model, 5, rng=0)
        assert scaled.number_of_tasks == 12  # one replica + staging + collect

    def test_determinism(self, model):
        a = scale_workflow(model, 120, rng=4)
        b = scale_workflow(model, 120, rng=4)
        assert a.tasks() == b.tasks()
        assert [a.work(t) for t in a.tasks()] == [b.work(t) for t in b.tasks()]
