"""Tests for the Workflow DAG model."""

from __future__ import annotations

import pytest

from repro.utils.errors import CyclicWorkflowError, InvalidWorkflowError
from repro.workflow.dag import Workflow


class TestConstruction:
    def test_add_task_and_lookup(self):
        wf = Workflow("w")
        wf.add_task("a", work=5, category="qc")
        assert wf.has_task("a")
        assert wf.work("a") == 5
        assert wf.category("a") == "qc"
        wf.add_task("b")
        assert wf.work("b") == 1
        assert wf.category("b") is None

    def test_duplicate_task_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        with pytest.raises(InvalidWorkflowError):
            wf.add_task("a")

    def test_non_positive_work_rejected(self):
        wf = Workflow("w")
        with pytest.raises(InvalidWorkflowError):
            wf.add_task("a", work=0)
        with pytest.raises(InvalidWorkflowError):
            wf.add_task("a", work=-3)

    def test_add_dependency(self):
        wf = Workflow("w")
        wf.add_task("a")
        wf.add_task("b")
        wf.add_dependency("a", "b", data=4)
        assert wf.has_dependency("a", "b")
        assert wf.data("a", "b") == 4

    def test_self_loop_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        with pytest.raises(InvalidWorkflowError):
            wf.add_dependency("a", "a")

    def test_unknown_endpoint_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        with pytest.raises(InvalidWorkflowError):
            wf.add_dependency("a", "missing")

    def test_duplicate_edge_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        wf.add_task("b")
        wf.add_dependency("a", "b")
        with pytest.raises(InvalidWorkflowError):
            wf.add_dependency("a", "b")

    def test_cycle_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        wf.add_task("b")
        wf.add_dependency("a", "b")
        with pytest.raises(CyclicWorkflowError):
            wf.add_dependency("b", "a")

    def test_three_cycle_rejected(self):
        # The closing edge's target has successors, so the path search runs.
        wf = Workflow("w")
        for name in "abc":
            wf.add_task(name)
        wf.add_dependency("a", "b")
        wf.add_dependency("b", "c")
        with pytest.raises(CyclicWorkflowError):
            wf.add_dependency("c", "a")
        assert not wf.has_dependency("c", "a")

    def test_negative_data_rejected(self):
        wf = Workflow("w")
        wf.add_task("a")
        wf.add_task("b")
        with pytest.raises(InvalidWorkflowError):
            wf.add_dependency("a", "b", data=-1)


class TestAccessors:
    def test_sources_and_sinks(self, diamond_workflow_fixed):
        assert diamond_workflow_fixed.sources() == ["a"]
        assert diamond_workflow_fixed.sinks() == ["d"]

    def test_predecessors_successors(self, diamond_workflow_fixed):
        assert set(diamond_workflow_fixed.successors("a")) == {"b", "c"}
        assert set(diamond_workflow_fixed.predecessors("d")) == {"b", "c"}

    def test_total_work_and_data(self, diamond_workflow_fixed):
        assert diamond_workflow_fixed.total_work() == 2 + 3 + 1 + 2
        assert diamond_workflow_fixed.total_data() == 1 + 2 + 1 + 1

    def test_len_iter_contains(self, diamond_workflow_fixed):
        assert len(diamond_workflow_fixed) == 4
        assert "a" in diamond_workflow_fixed
        assert set(iter(diamond_workflow_fixed)) == {"a", "b", "c", "d"}

    def test_unknown_task_raises(self, diamond_workflow_fixed):
        with pytest.raises(InvalidWorkflowError):
            diamond_workflow_fixed.work("zzz")
        with pytest.raises(InvalidWorkflowError):
            diamond_workflow_fixed.predecessors("zzz")


class TestStructure:
    def test_topological_order_validity(self, diamond_workflow_fixed):
        order = diamond_workflow_fixed.topological_order()
        assert order[0] == "a"
        assert order[-1] == "d"

    def test_levels_and_depth(self, diamond_workflow_fixed):
        levels = diamond_workflow_fixed.levels()
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert diamond_workflow_fixed.depth() == 3

    def test_empty_workflow(self):
        wf = Workflow("empty")
        assert wf.depth() == 0
        assert wf.topological_order() == []


class TestEditing:
    def test_copy_is_independent(self, diamond_workflow_fixed):
        clone = diamond_workflow_fixed.copy("clone")
        clone.set_work("a", 99)
        assert diamond_workflow_fixed.work("a") == 2
        assert clone.name == "clone"

    def test_set_work_and_data(self, diamond_workflow_fixed):
        diamond_workflow_fixed.set_work("a", 10)
        diamond_workflow_fixed.set_data("a", "b", 7)
        assert diamond_workflow_fixed.work("a") == 10
        assert diamond_workflow_fixed.data("a", "b") == 7

    @pytest.mark.parametrize(
        "method, args, message",
        [
            ("set_work", ("a", 0), "work must be positive"),
            ("set_work", ("a", 2.5), "work must be an integer"),
            ("set_data", ("a", "b", -1), "data must be non-negative"),
            ("set_data", ("a", "b", True), "data must be an integer"),
        ],
        ids=["work-zero", "work-float", "data-negative", "data-bool"],
    )
    def test_set_rejects_invalid_weights(self, diamond_workflow_fixed, method, args, message):
        before = diamond_workflow_fixed.to_dict()
        with pytest.raises(InvalidWorkflowError, match=message):
            getattr(diamond_workflow_fixed, method)(*args)
        assert diamond_workflow_fixed.to_dict() == before
