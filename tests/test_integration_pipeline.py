"""End-to-end integration tests across all subsystems.

These tests follow the paper's complete pipeline: generate a workflow, map it
with HEFT onto a Table-1-style cluster, build the communication-enhanced DAG,
derive the deadline from the ASAP makespan, generate a green-power profile,
run all algorithm variants, and check the global relationships between their
results (feasibility, baseline comparison, optimality bounds).
"""

from __future__ import annotations

import pytest

from repro import (
    CaWoSched,
    ProblemInstance,
    asap_makespan,
    build_enhanced_dag,
    carbon_cost,
    carbon_cost_per_time_unit,
    generate_power_profile,
    generate_workflow,
    heft_mapping,
    is_feasible,
    scaled_small_cluster,
    synthetic_daily_trace,
    profile_from_trace,
)
from repro.core.variants import GREEDY_VARIANTS, variant_names
from repro.exact.ilp import ilp_optimal
from repro.experiments.instances import InstanceSpec, make_instance


def run_all(instance, variants=None):
    """Run *variants* (default: all 17) on *instance*, keyed by name."""
    scheduler = CaWoSched()
    names = variant_names() if variants is None else variants
    return {name: scheduler.run(instance, name) for name in names}


@pytest.fixture(scope="module")
def pipeline_instance() -> ProblemInstance:
    workflow = generate_workflow("atacseq", 50, rng=11)
    cluster = scaled_small_cluster()
    mapping = heft_mapping(workflow, cluster).mapping
    dag = build_enhanced_dag(mapping, rng=11)
    deadline = 2 * asap_makespan(dag)
    profile = generate_power_profile(
        "S1", deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        rng=11,
    )
    return ProblemInstance(dag, profile, name="pipeline")


class TestFullPipeline:
    def test_all_seventeen_variants_run_and_are_feasible(self, pipeline_instance):
        results = run_all(pipeline_instance)
        assert len(results) == 17
        for result in results.values():
            assert is_feasible(result.schedule)
            assert result.carbon_cost == carbon_cost(result.schedule)
            assert result.carbon_cost == carbon_cost_per_time_unit(result.schedule)

    def test_heuristics_beat_asap_on_s1(self, pipeline_instance):
        """S1 has little green power early, so ASAP must be beatable."""
        results = run_all(pipeline_instance)
        baseline = results["ASAP"].carbon_cost
        best = min(
            result.carbon_cost for name, result in results.items() if name != "ASAP"
        )
        assert best < baseline

    def test_local_search_never_hurts(self, pipeline_instance):
        results = run_all(pipeline_instance)
        for greedy_name in GREEDY_VARIANTS:
            assert results[f"{greedy_name}-LS"].carbon_cost <= results[greedy_name].carbon_cost

    def test_makespans_respect_deadline(self, pipeline_instance):
        results = run_all(pipeline_instance)
        for result in results.values():
            assert result.makespan <= pipeline_instance.deadline


class TestTraceDrivenPipeline:
    def test_trace_profile_instance_runs(self):
        workflow = generate_workflow("methylseq", 40, rng=3)
        cluster = scaled_small_cluster()
        mapping = heft_mapping(workflow, cluster).mapping
        dag = build_enhanced_dag(mapping, rng=3)
        deadline = 3 * asap_makespan(dag)
        trace = synthetic_daily_trace("solar", rng=3)
        profile = profile_from_trace(
            trace, deadline,
            idle_power=dag.platform.total_idle_power(),
            work_power=dag.platform.total_work_power(),
        )
        instance = ProblemInstance(dag, profile, name="trace-driven")
        results = run_all(instance, variants=["ASAP", "pressWR-LS"])
        assert results["pressWR-LS"].carbon_cost <= results["ASAP"].carbon_cost


class TestOptimalityOnSmallInstances:
    @pytest.mark.parametrize("scenario", ["S1", "S4"])
    def test_ilp_is_lower_bound_for_all_variants(self, scenario):
        spec = InstanceSpec("bacass", 12, "small", scenario, 1.5, seed=2)
        instance = make_instance(spec, master_seed=4)
        optimal = carbon_cost(ilp_optimal(instance))
        results = run_all(instance)
        for name, result in results.items():
            assert result.carbon_cost >= optimal, name

    def test_heuristics_reach_optimum_on_small_instance(self):
        """Mirrors the Figure 7 observation: on a significant number of small
        instances the heuristics find the ILP optimum exactly."""
        spec = InstanceSpec("bacass", 12, "small", "S1", 2.0, seed=3)
        instance = make_instance(spec, master_seed=4)
        optimal = carbon_cost(ilp_optimal(instance))
        results = run_all(instance, variants=variant_names(only_local_search=True))
        best = min(r.carbon_cost for name, r in results.items() if name != "ASAP")
        assert best == optimal


class TestDeadlineEffect:
    def test_more_slack_never_increases_best_heuristic_cost(self):
        costs = {}
        for factor in (1.0, 2.0, 3.0):
            spec = InstanceSpec("eager", 30, "small", "S1", factor, seed=6)
            instance = make_instance(spec, master_seed=6)
            results = run_all(
                instance, variants=["pressWR-LS", "slackWR-LS", "press-LS", "slack-LS"]
            )
            costs[factor] = min(result.carbon_cost for result in results.values())
        assert costs[2.0] <= costs[1.0]
        assert costs[3.0] <= costs[2.0]
