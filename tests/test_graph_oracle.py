"""Differential tests of the plain-dict graphs against networkx as the oracle.

The library keeps its graphs in insertion-ordered dicts and sorts them with
its own Kahn pass.  These tests rebuild the same graphs with networkx and
require identical orders: node and edge order, predecessor and successor
order, and the tie-broken topological order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import save_instance
from repro.platform_.cluster import link_name
from repro.utils.errors import CyclicWorkflowError, InvalidWorkflowError
from repro.utils.ordering import _sort_key, topological_order
from repro.workflow.dag import Workflow
from repro.workflow.task import CommTask

# Mixed label types, as in a communication-enhanced DAG.
LABELS = st.one_of(
    st.text(alphabet="ab12", min_size=1, max_size=2),
    st.integers(0, 12),
    st.tuples(st.just("comm"), st.integers(0, 3), st.text(alphabet="ab", max_size=1)),
)


def nx_order(graph: nx.DiGraph) -> list:
    return list(nx.lexicographical_topological_sort(graph, key=_sort_key))


@st.composite
def random_dags(draw, max_nodes: int = 12):
    """Return ``(nodes, edges)`` of a random DAG, edges in random order."""
    nodes = draw(st.lists(LABELS, unique=True, max_size=max_nodes))
    rank = draw(st.permutations(range(len(nodes))))
    pairs = [
        (nodes[u], nodes[v])
        for u in range(len(nodes))
        for v in range(len(nodes))
        if rank[u] < rank[v]
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return nodes, edges


def both_graphs(nodes, edges):
    successors = {node: [] for node in nodes}
    mirror = nx.DiGraph()
    mirror.add_nodes_from(nodes)
    for source, target in edges:
        successors[source].append(target)
        mirror.add_edge(source, target)
    return successors, mirror


class TestTopologicalOrderOracle:
    @settings(max_examples=150, deadline=None)
    @given(random_dags())
    def test_matches_lexicographical_topological_sort(self, dag):
        successors, mirror = both_graphs(*dag)
        assert topological_order(successors) == nx_order(mirror)

    @settings(max_examples=100, deadline=None)
    @given(random_dags().filter(lambda dag: dag[1]), st.data())
    def test_cycle_raises(self, dag, data):
        nodes, edges = dag
        source, target = data.draw(st.sampled_from(edges))
        successors, mirror = both_graphs(nodes, edges + [(target, source)])
        assert not nx.is_directed_acyclic_graph(mirror)
        with pytest.raises(CyclicWorkflowError):
            topological_order(successors)


def assert_mirrors(workflow: Workflow, mirror: nx.DiGraph) -> None:
    assert workflow.tasks() == list(mirror.nodes)
    assert workflow.dependencies() == list(mirror.edges)
    for node in mirror:
        assert workflow.predecessors(node) == list(mirror.predecessors(node))
        assert workflow.successors(node) == list(mirror.successors(node))
        assert workflow.work(node) == mirror.nodes[node]["work"]
    assert [workflow.data(u, v) for u, v in workflow.dependencies()] == [
        data for _, _, data in mirror.edges(data="data")
    ]
    assert workflow.sources() == [n for n in mirror if mirror.in_degree(n) == 0]
    assert workflow.sinks() == [n for n in mirror if mirror.out_degree(n) == 0]
    assert workflow.topological_order() == nx_order(mirror)


class TestWorkflowOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_edit_sequences_match_networkx(self, data):
        workflow, mirror = Workflow("w"), nx.DiGraph()
        for _ in range(data.draw(st.integers(0, 40))):
            op = data.draw(st.sampled_from(["task", "task", "edge", "edge", "edge", "work", "copy"]))
            tasks = list(mirror.nodes)
            if op == "task":
                name, work = data.draw(LABELS), data.draw(st.integers(1, 9))
                if name in mirror:
                    with pytest.raises(InvalidWorkflowError, match="already exists"):
                        workflow.add_task(name, work=work)
                    continue
                workflow.add_task(name, work=work)
                mirror.add_node(name, work=work)
            elif op == "edge" and tasks:
                source, target = data.draw(st.sampled_from(tasks)), data.draw(st.sampled_from(tasks))
                volume = data.draw(st.integers(0, 5))
                if source == target or mirror.has_edge(source, target):
                    with pytest.raises(InvalidWorkflowError, match="self-loop|already exists"):
                        workflow.add_dependency(source, target, data=volume)
                elif nx.has_path(mirror, target, source):
                    with pytest.raises(CyclicWorkflowError):
                        workflow.add_dependency(source, target, data=volume)
                else:
                    workflow.add_dependency(source, target, data=volume)
                    mirror.add_edge(source, target, data=volume)
            elif op == "work" and tasks:
                name, work = data.draw(st.sampled_from(tasks)), data.draw(st.integers(1, 9))
                workflow.set_work(name, work)
                mirror.nodes[name]["work"] = work
            elif op == "copy":
                workflow, mirror = workflow.copy(), mirror.copy()
            assert_mirrors(workflow, mirror)


@pytest.mark.parametrize("family,size", [("chain", 8), ("bacass", 15), ("atacseq", 30), ("eager", 20)])
def test_enhanced_dag_matches_networkx_build(family, size):
    """The communication-enhanced DAG keeps networkx's node, edge and adjacency orders."""
    dag = make_instance(InstanceSpec(family, size, "small", "S1", 1.5, seed=3)).dag
    mapping, workflow = dag.mapping, dag.mapping.workflow
    mirror = nx.DiGraph()
    mirror.add_nodes_from(workflow.tasks())
    comm = {
        (u, v): CommTask(u, v, volume=workflow.data(u, v)).name
        for u, v in mapping.communications()
    }
    mirror.add_nodes_from(comm.values())
    for u, v in workflow.dependencies():
        if (u, v) in comm:
            mirror.add_edges_from([(u, comm[u, v]), (comm[u, v], v)])
        else:
            mirror.add_edge(u, v)
    chains = list(mapping.processor_order().values()) + [
        [comm[tuple(edge)] for edge in edges] for edges in mapping.communication_order().values()
    ]
    for chain in chains:
        for earlier, later in zip(chain, chain[1:]):
            if not mirror.has_edge(earlier, later):
                mirror.add_edge(earlier, later)
    assert dag.num_comm_tasks == len(comm)
    assert dag.nodes() == list(mirror.nodes)
    assert dag.edges() == list(mirror.edges)
    assert dag.topological_order() == nx_order(mirror)
    assert list(dag.successor_map()) == dag.topological_order()
    for node in mirror:
        assert dag.predecessors(node) == list(mirror.predecessors(node))
        assert dag.successors(node) == list(mirror.successors(node))
    for (u, v), name in comm.items():
        assert dag.processor(name) == link_name(mapping.processor_of(u), mapping.processor_of(v))


def test_runtime_does_not_import_networkx(tmp_path):
    """Loading, scheduling and simulating never import networkx."""
    path = tmp_path / "instance.json"
    save_instance(make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)), path)
    script = f"""
import sys
from repro import Client, Job, SimulationConfig, load_instance, simulate, variant_names
instance = load_instance({str(path)!r})
result = Client().submit(Job.from_instance(instance))
assert [r.variant for r in result.records] == list(variant_names())
report = simulate(SimulationConfig(horizon=240, tasks=(6,), seed=1))
assert report.jobs
assert "networkx" not in sys.modules, "networkx was imported"
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
