"""Tests for the communication-enhanced DAG construction."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import link_name
from repro.platform_.presets import scaled_small_cluster, uniform_cluster
from repro.workflow.dag import Workflow
from repro.workflow.generators import atacseq_like_workflow, generate_workflow

from nx_oracle import to_networkx


@pytest.fixture
def cross_mapping(diamond_workflow_fixed):
    cluster = uniform_cluster(2, p_idle=1, p_work=2)
    mapping = Mapping(
        diamond_workflow_fixed, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
    )
    return mapping


class TestConstruction:
    def test_node_count_is_tasks_plus_communications(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        # Cross edges with data > 0: a->c (2) and c->d (1).
        assert dag.num_comm_tasks == 2
        assert dag.num_nodes == 4 + 2

    def test_comm_task_routing(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        comm = ("comm", "a", "c")
        assert comm in dag.nodes()
        assert ("a", comm) in dag.edges()
        assert (comm, "c") in dag.edges()
        # The direct edge a -> c must have been replaced.
        assert ("a", "c") not in dag.edges()

    def test_comm_nodes_are_named_by_their_edge(self):
        workflow = generate_workflow("bacass", 30, rng=2)
        mapping = heft_mapping(workflow, scaled_small_cluster()).mapping
        dag = build_enhanced_dag(mapping, rng=2)
        comm = [node for node in dag.nodes() if dag.is_comm(node)]
        assert comm == [("comm", u, v) for u, v in mapping.communications()]
        assert len(set(comm)) == dag.num_comm_tasks > 0

    def test_zero_data_cross_edge_has_no_comm_task(self, diamond_workflow_fixed):
        diamond_workflow_fixed.set_data("a", "c", 0)
        cluster = uniform_cluster(2, p_idle=1, p_work=2)
        mapping = Mapping(
            diamond_workflow_fixed, cluster, {"a": "p0", "b": "p0", "c": "p1", "d": "p0"}
        )
        dag = build_enhanced_dag(mapping, rng=0)
        assert ("comm", "a", "c") not in dag
        assert ("a", "c") in dag.edges()
        assert dag.num_comm_tasks == 1

    def test_same_processor_edge_kept(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        assert ("a", "b") in dag.edges()

    def test_comm_task_on_link_processor(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        comm = ("comm", "a", "c")
        assert dag.processor(comm) == link_name("p0", "p1")
        assert dag.is_comm(comm)
        assert not dag.is_comm("a")

    def test_comm_duration_is_data_over_bandwidth(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        assert dag.duration(("comm", "a", "c")) == 2  # data 2, bandwidth 1

    def test_durations_use_processor_speed(self, diamond_workflow_fixed):
        from repro.platform_.cluster import Cluster
        from repro.platform_.processor import ProcessorSpec

        cluster = Cluster(
            [ProcessorSpec("slow", speed=1), ProcessorSpec("fast", speed=2)], name="c"
        )
        mapping = Mapping(
            diamond_workflow_fixed, cluster,
            {"a": "fast", "b": "fast", "c": "fast", "d": "fast"},
        )
        dag = build_enhanced_dag(mapping, rng=0)
        assert dag.duration("b") == 2  # ceil(3 / 2)

    def test_ordering_chain_edges_added(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        # p0 executes a, b, d in this order -> chain edges a->b (already a
        # precedence edge) and b->d.
        assert ("b", "d") in dag.edges()

    @pytest.mark.parametrize("family", ["atacseq", "bacass", "eager", "forkjoin"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_processor_order_is_a_chain_of_edges(self, family, seed):
        # Feasibility checking relies on this: the fixed order of every
        # compute and link processor is part of the edge set.
        workflow = generate_workflow(family, 40, rng=seed)
        mapping = heft_mapping(workflow, scaled_small_cluster()).mapping
        dag = build_enhanced_dag(mapping, rng=seed)
        edges = set(dag.edges())
        pairs = {False: 0, True: 0}  # consecutive pairs on compute / link processors
        for processor in dag.processors_with_tasks():
            tasks = dag.tasks_on(processor)
            for earlier, later in zip(tasks, tasks[1:]):
                assert (earlier, later) in edges
                pairs[dag.is_comm(earlier)] += 1
        assert pairs[False] > 0 and pairs[True] > 0

    def test_is_acyclic(self):
        workflow = atacseq_like_workflow(60, rng=1)
        cluster = scaled_small_cluster()
        mapping = heft_mapping(workflow, cluster).mapping
        dag = build_enhanced_dag(mapping, rng=1)
        assert nx.is_directed_acyclic_graph(to_networkx(dag))

    def test_platform_contains_only_used_links(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        assert len(dag.platform.links()) == len(cross_mapping.used_links())


class TestAccessors:
    def test_tasks_on_processor(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        assert dag.tasks_on("p0") == ["a", "b", "d"]
        assert dag.tasks_on("p1") == ["c"]
        assert dag.tasks_on(link_name("p0", "p1")) == [("comm", "a", "c")]

    def test_processors_with_tasks(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        procs = dag.processors_with_tasks()
        assert "p0" in procs and "p1" in procs
        assert link_name("p0", "p1") in procs

    def test_topological_order_is_valid(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        order = dag.topological_order()
        position = {node: index for index, node in enumerate(order)}
        for source, target in dag.edges():
            assert position[source] < position[target]

    def test_critical_path_duration_lower_bound(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        # Path a -> comm(a,c) -> c -> comm(c,d) -> d has duration 2+2+1+1+2.
        assert dag.critical_path_duration() == 8

    def test_contains_and_len(self, cross_mapping):
        dag = build_enhanced_dag(cross_mapping, rng=0)
        assert "a" in dag
        assert len(dag) == dag.num_nodes
