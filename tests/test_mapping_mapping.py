"""Tests for the fixed Mapping data structure."""

from __future__ import annotations

import pytest

from repro.mapping.mapping import Mapping
from repro.platform_.presets import uniform_cluster
from repro.utils.errors import InvalidMappingError
from repro.workflow.dag import Workflow


@pytest.fixture
def workflow(diamond_workflow_fixed) -> Workflow:
    return diamond_workflow_fixed


@pytest.fixture
def cluster():
    return uniform_cluster(2, p_idle=1, p_work=2)


class TestConstruction:
    def test_basic_mapping(self, workflow, cluster):
        mapping = Mapping(workflow, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"})
        assert mapping.processor_of("c") == "p1"
        assert mapping.tasks_on("p0") == ["a", "b", "d"]
        assert mapping.tasks_on("p1") == ["c"]

    def test_missing_task_rejected(self, workflow, cluster):
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, {"a": "p0", "b": "p0", "c": "p1"})

    def test_unknown_processor_rejected(self, workflow, cluster):
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, {"a": "ghost", "b": "p0", "c": "p1", "d": "p0"})

    def test_unknown_task_in_assignment_rejected(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p1", "d": "p0", "extra": "p0"}
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, assignment)

    def test_explicit_processor_order(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
        order = {"p0": ["a", "b", "d"], "p1": ["c"]}
        mapping = Mapping(workflow, cluster, assignment, processor_order=order)
        assert mapping.tasks_on("p0") == ["a", "b", "d"]

    def test_order_inconsistent_with_assignment_rejected(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
        order = {"p0": ["a", "b", "d", "c"], "p1": []}
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, assignment, processor_order=order)

    def test_order_contradicting_precedence_rejected(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p0", "d": "p0"}
        order = {"p0": ["d", "a", "b", "c"]}  # d before its predecessors
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, assignment, processor_order=order)

    def test_task_on_two_processors_rejected(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
        order = {"p0": ["a", "b", "d"], "p1": ["c", "a"]}
        with pytest.raises(InvalidMappingError):
            Mapping(workflow, cluster, assignment, processor_order=order)


class TestCommunications:
    def test_cross_processor_edges_detected(self, workflow, cluster):
        mapping = Mapping(workflow, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"})
        comms = set(mapping.communications())
        assert ("a", "c") in comms
        assert ("c", "d") in comms
        assert ("a", "b") not in comms

    def test_zero_data_edge_not_a_communication(self, cluster):
        wf = Workflow("w")
        wf.add_task("x")
        wf.add_task("y")
        wf.add_dependency("x", "y", data=0)
        mapping = Mapping(wf, cluster, {"x": "p0", "y": "p1"})
        assert mapping.communications() == []

    def test_used_links(self, workflow, cluster):
        mapping = Mapping(workflow, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"})
        assert set(mapping.used_links()) == {("p0", "p1"), ("p1", "p0")}

    def test_canonical_communication_order_follows_processor_order(self, cluster):
        wf = Workflow("w")
        for name in "abcd":
            wf.add_task(name)
        wf.add_dependency("a", "c", data=1)
        wf.add_dependency("b", "d", data=1)
        mapping = Mapping(wf, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p1"})
        comms = mapping.communication_order()[("p0", "p1")]
        assert comms == [("a", "c"), ("b", "d")]

    def test_custom_communication_order_must_match_edges(self, workflow, cluster):
        assignment = {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
        with pytest.raises(InvalidMappingError):
            Mapping(
                workflow,
                cluster,
                assignment,
                communication_order={("p0", "p1"): [("a", "c"), ("a", "c")]},
            )

    def test_duration_uses_processor_speed(self, workflow):
        from repro.platform_.cluster import Cluster
        from repro.platform_.processor import ProcessorSpec

        cluster = Cluster(
            [ProcessorSpec("slow", speed=1), ProcessorSpec("fast", speed=3)], name="c"
        )
        mapping = Mapping(
            workflow, cluster, {"a": "fast", "b": "slow", "c": "fast", "d": "slow"}
        )
        assert mapping.duration("a") == 1  # ceil(2 / 3)
        assert mapping.duration("b") == 3  # work 3 at speed 1
