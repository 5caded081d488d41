"""Property-based tests (hypothesis) for the scheduling core.

These properties are the library's main invariants:

* every algorithm variant always returns a feasible schedule,
* the polynomial and per-time-unit cost evaluators agree exactly,
* the local search never increases the cost,
* the ILP optimum is a lower bound for every heuristic (on tiny instances),
* HEFT always produces a valid mapping whose enhanced DAG is acyclic.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.scenarios import generate_power_profile
from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import cluster_from_table1, uniform_cluster
from repro.schedule.asap import asap_makespan, asap_schedule
from repro.schedule.cost import carbon_cost, carbon_cost_per_time_unit
from repro.schedule.instance import ProblemInstance
from repro.schedule.validation import is_feasible
from repro.workflow.generators import generate_workflow

from nx_oracle import to_networkx


def build_random_instance(family: str, num_tasks: int, scenario: str,
                          deadline_factor: float, seed: int,
                          nodes_per_type: int = 1) -> ProblemInstance:
    workflow = generate_workflow(family, num_tasks, rng=seed)
    cluster = cluster_from_table1(nodes_per_type, name="prop")
    mapping = heft_mapping(workflow, cluster).mapping
    dag = build_enhanced_dag(mapping, rng=seed)
    deadline = max(1, int(deadline_factor * asap_makespan(dag)))
    profile = generate_power_profile(
        scenario, deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=8, rng=seed,
    )
    return ProblemInstance(dag, profile)


INSTANCE_STRATEGY = st.builds(
    build_random_instance,
    family=st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
    num_tasks=st.integers(6, 30),
    scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
    deadline_factor=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 10**6),
)


class TestSchedulingInvariants:
    @given(
        instance=INSTANCE_STRATEGY,
        base=st.sampled_from(["slack", "pressure"]),
        weighted=st.booleans(),
        refined=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_always_feasible_and_costs_agree(self, instance, base, weighted, refined):
        schedule = greedy_schedule(instance, base=base, weighted=weighted, refined=refined)
        assert is_feasible(schedule)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    @given(instance=INSTANCE_STRATEGY, base=st.sampled_from(["slack", "pressure"]))
    @settings(max_examples=15, deadline=None)
    def test_local_search_never_increases_cost_and_stays_feasible(self, instance, base):
        greedy = greedy_schedule(instance, base=base, refined=True)
        improved = local_search([greedy], window=5)[0]
        assert is_feasible(improved)
        assert carbon_cost(improved) <= carbon_cost(greedy)

    @given(instance=INSTANCE_STRATEGY)
    @settings(max_examples=20, deadline=None)
    def test_asap_feasible_and_cost_evaluators_agree(self, instance):
        schedule = asap_schedule(instance)
        assert is_feasible(schedule)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    @given(instance=INSTANCE_STRATEGY)
    @settings(max_examples=15, deadline=None)
    def test_asap_makespan_is_minimal_among_variants(self, instance):
        """No schedule can finish earlier than the ASAP makespan."""
        asap = asap_schedule(instance)
        greedy = greedy_schedule(instance, base="pressure", refined=True)
        assert greedy.makespan >= asap.makespan


class TestHeftProperties:
    @given(
        family=st.sampled_from(["atacseq", "methylseq", "eager", "layered"]),
        num_tasks=st.integers(8, 50),
        seed=st.integers(0, 10**6),
        nodes_per_type=st.integers(1, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_heft_enhanced_dag_is_acyclic_and_complete(
        self, family, num_tasks, seed, nodes_per_type
    ):
        workflow = generate_workflow(family, num_tasks, rng=seed)
        cluster = cluster_from_table1(nodes_per_type, name="prop")
        mapping = heft_mapping(workflow, cluster).mapping
        dag = build_enhanced_dag(mapping, rng=seed)
        mirror = to_networkx(dag)
        assert nx.is_directed_acyclic_graph(mirror)
        assert dag.num_nodes == workflow.number_of_tasks + dag.num_comm_tasks
        # Every original precedence constraint is represented (directly or via
        # a communication task).
        for source, target in workflow.dependencies():
            assert nx.has_path(mirror, source, target)

    @given(
        num_tasks=st.integers(5, 30),
        num_procs=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_heft_makespan_bounded_by_serial_execution(self, num_tasks, num_procs, seed):
        workflow = generate_workflow("layered", num_tasks, rng=seed)
        cluster = uniform_cluster(num_procs, speed=1.0)
        result = heft_mapping(workflow, cluster)
        assert result.makespan <= workflow.total_work() + workflow.total_data()
