"""Tests for tasks and communication tasks as plain node names.

A task is a name in its :class:`Workflow`, with a work volume and a category;
a communication task is the node ``("comm", source, target)`` that
:func:`build_enhanced_dag` inserts for a cross-processor edge carrying data.
"""

from __future__ import annotations

import pytest

from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import uniform_cluster
from repro.utils.errors import InvalidWorkflowError
from repro.workflow.dag import Workflow


@pytest.fixture
def diamond_dag(diamond_workflow_fixed):
    """The diamond with a and c split: comm nodes for a->c and c->d."""
    cluster = uniform_cluster(2, p_idle=1, p_work=2)
    mapping = Mapping(
        diamond_workflow_fixed, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
    )
    return build_enhanced_dag(mapping, rng=0)


class TestTask:
    def test_defaults(self):
        wf = Workflow("w")
        wf.add_task("a")
        assert wf.work("a") == 1
        assert wf.category("a") is None

    def test_invalid_work(self):
        wf = Workflow("w")
        with pytest.raises(InvalidWorkflowError):
            wf.add_task("a", work=0)
        with pytest.raises(InvalidWorkflowError):
            wf.add_task("a", work=-3)
        assert not wf.has_task("a")


class TestCommTask:
    def test_name_is_unique_tuple(self, diamond_dag):
        comm = ("comm", "a", "c")
        assert diamond_dag.is_comm(comm)
        assert diamond_dag.predecessors(comm) == ["a"]
        assert diamond_dag.successors(comm) == ["c"]
        assert not diamond_dag.is_comm("a")

    def test_hashable_and_distinct(self, diamond_dag):
        comm = [node for node in diamond_dag.nodes() if diamond_dag.is_comm(node)]
        assert sorted(comm) == [("comm", "a", "c"), ("comm", "c", "d")]
        assert len(set(comm)) == 2
        assert set(comm).isdisjoint(diamond_dag.mapping.workflow.tasks())
