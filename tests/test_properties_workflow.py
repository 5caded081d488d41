"""Property-based tests (hypothesis) for workflow generators and the DAG model."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.generators import (
    fork_join_workflow,
    generate_workflow,
    layered_random_workflow,
    random_dag_workflow,
)

from nx_oracle import to_networkx

FAMILIES = st.sampled_from(["atacseq", "methylseq", "eager", "bacass", "layered", "forkjoin"])


class TestGeneratorProperties:
    @given(family=FAMILIES, num_tasks=st.integers(10, 120), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_generated_workflows_are_valid_dags(self, family, num_tasks, seed):
        wf = generate_workflow(family, num_tasks, rng=seed)
        assert nx.is_directed_acyclic_graph(to_networkx(wf))
        assert wf.number_of_tasks >= 1
        assert all(type(wf.work(task)) is int and wf.work(task) >= 1 for task in wf.tasks())
        assert all(type(wf.data(u, v)) is int and wf.data(u, v) >= 0 for u, v in wf.dependencies())

    @given(num_tasks=st.integers(1, 80), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_layered_generator_hits_exact_size(self, num_tasks, seed):
        wf = layered_random_workflow(num_tasks, rng=seed)
        assert wf.number_of_tasks == num_tasks

    @given(
        num_tasks=st.integers(2, 60),
        probability=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_dag_edges_only_forward(self, num_tasks, probability, seed):
        wf = random_dag_workflow(num_tasks, edge_probability=probability, rng=seed)
        for source, target in wf.dependencies():
            assert int(str(source)[1:]) < int(str(target)[1:])

    @given(width=st.integers(1, 12), stages=st.integers(1, 5), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_fork_join_task_count_formula(self, width, stages, seed):
        wf = fork_join_workflow(width, stages=stages, rng=seed)
        assert wf.number_of_tasks == 2 + width * stages

    @given(family=FAMILIES, num_tasks=st.integers(10, 80), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_critical_path_at_most_total_work(self, family, num_tasks, seed):
        wf = generate_workflow(family, num_tasks, rng=seed)
        assert wf.critical_path_work() <= wf.total_work()
        assert wf.depth() <= wf.number_of_tasks

