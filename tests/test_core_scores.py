"""Tests for the slack / pressure scores and the greedy task order."""

from __future__ import annotations

import math

import pytest

from repro.carbon.intervals import PowerProfile
from repro.core.estlst import EstLstTracker
from repro.core.scores import (
    SCORE_PRESSURE,
    SCORE_SLACK,
    compute_scores,
    pressure_scores,
    slack_scores,
    task_order,
    weight_factors,
)
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.platform_.processor import ProcessorSpec
from repro.schedule.instance import ProblemInstance
from repro.utils.errors import CaWoSchedError
from schedule_helpers import with_zero_durations


@pytest.fixture
def est_lst(tiny_multi_instance):
    tracker = EstLstTracker(tiny_multi_instance.dag, tiny_multi_instance.deadline)
    return tracker.est_map(), tracker.lst_map()


class TestWeightFactors:
    def test_in_unit_interval(self, tiny_multi_instance):
        factors = weight_factors(tiny_multi_instance.dag)
        assert all(0 < factor <= 1 for factor in factors.values())

    def test_heaviest_processor_has_factor_one(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        factors = weight_factors(dag)
        max_power = max(spec.total_power for spec in dag.platform.processors())
        for node in dag.nodes():
            if dag.processor_spec(node).total_power == max_power:
                assert factors[node] == pytest.approx(1.0)


class TestSlackScores:
    def test_weighted_keeps_the_slack_of_a_powerless_processor(self, diamond_workflow_fixed):
        cluster = Cluster(
            [
                ProcessorSpec("off", speed=1, p_idle=0, p_work=0, proc_type="PT1"),
                ProcessorSpec("on", speed=1, p_idle=1, p_work=3, proc_type="PT2"),
            ],
            name="half-off",
        )
        assignment = {"a": "off", "b": "on", "c": "off", "d": "on"}
        mapping = Mapping(diamond_workflow_fixed, cluster, assignment)
        dag = build_enhanced_dag(mapping, rng=0)
        tracker = EstLstTracker(dag, 3 * dag.critical_path_duration())
        est, lst = tracker.est_map(), tracker.lst_map()
        factors = weight_factors(dag)
        plain = slack_scores(dag, est, lst)
        weighted = slack_scores(dag, est, lst, weighted=True)
        assert factors["a"] == factors["c"] == 0.0 < plain["a"]
        assert weighted["a"] == plain["a"] and weighted["c"] == plain["c"]
        assert weighted["b"] == plain["b"] / factors["b"]


    def test_unweighted_equals_lst_minus_est(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        scores = slack_scores(tiny_multi_instance.dag, est, lst)
        for node in tiny_multi_instance.dag.nodes():
            assert scores[node] == lst[node] - est[node]

    def test_weighted_inflates_light_processors(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        plain = slack_scores(dag, est, lst, weighted=False)
        weighted = slack_scores(dag, est, lst, weighted=True)
        factors = weight_factors(dag)
        for node in dag.nodes():
            if plain[node] == 0:
                assert weighted[node] == 0
            else:
                assert weighted[node] == pytest.approx(plain[node] / factors[node])


class TestPressureScores:
    def test_range_and_formula(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        scores = pressure_scores(dag, est, lst)
        for node in dag.nodes():
            slack = lst[node] - est[node]
            duration = dag.duration(node)
            assert scores[node] == pytest.approx(duration / (slack + duration))
            assert 0 < scores[node] <= 1

    def test_zero_slack_means_pressure_one(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        est = {node: 0 for node in dag.nodes()}
        lst = dict(est)  # zero slack everywhere
        scores = pressure_scores(dag, est, lst)
        assert all(score == pytest.approx(1.0) for score in scores.values())

    def test_weighted_scales_down(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        plain = pressure_scores(dag, est, lst, weighted=False)
        weighted = pressure_scores(dag, est, lst, weighted=True)
        for node in dag.nodes():
            assert weighted[node] <= plain[node] + 1e-12


class TestTaskOrder:
    def test_slack_order_non_decreasing(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        scores = compute_scores(dag, est, lst, base=SCORE_SLACK)
        order = task_order(dag, scores, base=SCORE_SLACK)
        values = [scores[node] for node in order]
        assert values == sorted(values)

    def test_pressure_order_non_increasing(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        scores = compute_scores(dag, est, lst, base=SCORE_PRESSURE)
        order = task_order(dag, scores, base=SCORE_PRESSURE)
        values = [scores[node] for node in order]
        assert values == sorted(values, reverse=True)

    def test_order_contains_every_node_once(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        dag = tiny_multi_instance.dag
        scores = compute_scores(dag, est, lst, base=SCORE_SLACK)
        order = task_order(dag, scores, base=SCORE_SLACK)
        assert sorted(map(str, order)) == sorted(map(str, dag.nodes()))

    def test_unknown_base_rejected(self, tiny_multi_instance, est_lst):
        est, lst = est_lst
        with pytest.raises(CaWoSchedError):
            compute_scores(tiny_multi_instance.dag, est, lst, base="priority")
        with pytest.raises(CaWoSchedError):
            task_order(tiny_multi_instance.dag, {}, base="priority")


class TestZeroDurationZeroSlack:
    """A task that takes no time and has no slack has pressure 0 / 0, NaN."""

    #: The pressure orders of the instance below, recorded before the scores
    #: left NumPy.  The NaN score of ``d`` compares false with every other
    #: score, so the order is not sorted by score; it must stay as it is.
    ORDERS = {
        False: ["a", "b", "c", "d", ("comm", "a", "c"), ("comm", "b", "d")],
        True: ["a", "b", "c", "d", ("comm", "a", "c"), ("comm", "b", "d")],
    }

    @pytest.fixture
    def instance(self, diamond_workflow_fixed, hetero_cluster):
        mapping = heft_mapping(diamond_workflow_fixed, hetero_cluster).mapping
        dag = with_zero_durations(build_enhanced_dag(mapping, rng=0), {"d"})
        return ProblemInstance(dag, PowerProfile([dag.critical_path_duration()], [5]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pressure_is_nan_and_the_order_is_pinned(self, instance, weighted):
        dag = instance.dag
        tracker = EstLstTracker(dag, instance.deadline)
        est, lst = tracker.est_map(), tracker.lst_map()
        assert dag.duration("d") == 0 and est["d"] == lst["d"]
        scores = pressure_scores(dag, est, lst, weighted=weighted)
        assert math.isnan(scores["d"])
        assert not any(math.isnan(scores[node]) for node in dag.nodes() if node != "d")
        assert task_order(dag, scores, base=SCORE_PRESSURE) == self.ORDERS[weighted]
