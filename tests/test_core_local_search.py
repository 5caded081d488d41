"""Tests for the local-search hill climber."""

from __future__ import annotations

import re

import pytest

from repro.carbon.intervals import PowerProfile
from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.io.wire import instance_from_dict, instance_to_dict
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import single_processor_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.validation import is_feasible
from repro.utils.errors import CaWoSchedError, InvalidScheduleError
from repro.workflow.dag import Workflow

from schedule_helpers import with_start


@pytest.fixture
def improvable_instance() -> ProblemInstance:
    """A single task that ASAP places in a brown interval; shifting it a few
    units to the right makes it free."""
    wf = Workflow("one")
    wf.add_task("t", work=3)
    cluster = single_processor_cluster(p_idle=0, p_work=5)
    mapping = Mapping(wf, cluster, {"t": "p0"})
    dag = build_enhanced_dag(mapping, rng=0)
    profile = PowerProfile([4, 6], [0, 10])
    return ProblemInstance(dag, profile)


class TestLocalSearchBehaviour:
    def test_never_increases_cost(self, tiny_multi_instance):
        for base in ("slack", "pressure"):
            greedy = greedy_schedule(tiny_multi_instance, base=base)
            improved = local_search([greedy])[0]
            assert carbon_cost(improved) <= carbon_cost(greedy)

    def test_result_is_feasible(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        improved = local_search([greedy])[0]
        assert is_feasible(improved)

    def test_finds_obvious_improvement(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        assert carbon_cost(asap) == 15  # 3 units × power 5 over budget 0
        improved = local_search([asap], window=10)[0]
        assert carbon_cost(improved) == 0
        assert improved.start("t") >= 4

    def test_window_zero_changes_nothing(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        unchanged = local_search([asap], window=0)[0]
        assert unchanged.start_times() == asap.start_times()

    def test_small_window_drifts_over_rounds(self, improvable_instance):
        # Repeated rounds let the task drift further than the window per
        # round, eventually leaving the brown interval entirely.
        asap = asap_schedule(improvable_instance)
        improved = local_search([asap], window=2)[0]
        assert carbon_cost(improved) == 0

    def test_best_improvement_not_worse_than_first(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        first = local_search([asap], best_improvement=False)[0]
        best = local_search([asap], best_improvement=True)[0]
        assert carbon_cost(best) <= carbon_cost(first)

    def test_algorithm_name_suffix(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="slack", refined=True)
        improved = local_search([greedy])[0]
        assert improved.algorithm == "slackR-LS"

    def test_negative_window_rejected(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="slack")
        with pytest.raises(ValueError):
            local_search([greedy], window=-1)[0]

    def test_moves_respect_precedence(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="pressure")
        improved = local_search([greedy], window=50)[0]
        dag = tiny_multi_instance.dag
        for source, target in dag.edges():
            assert improved.start(target) >= improved.start(source) + dag.duration(source)


class TestLocalSearchInput:
    def test_empty_sequence_rejected(self):
        with pytest.raises(CaWoSchedError, match="at least one schedule"):
            local_search([])

    def test_schedules_of_different_instances_rejected(self, tiny_multi_instance):
        twin = instance_from_dict(instance_to_dict(tiny_multi_instance))
        schedules = [asap_schedule(tiny_multi_instance), asap_schedule(twin)]
        with pytest.raises(CaWoSchedError, match="one instance"):
            local_search(schedules)

    def test_bare_schedule_rejected(self, tiny_multi_instance):
        # A Schedule iterates over its nodes; it must not be read as a group.
        with pytest.raises(CaWoSchedError, match="not one Schedule"):
            local_search(asap_schedule(tiny_multi_instance))

    def test_group_keeps_input_order_and_labels(self, tiny_multi_instance):
        schedules = [
            greedy_schedule(tiny_multi_instance, base="pressure"),
            asap_schedule(tiny_multi_instance),
        ]
        improved = local_search(tuple(schedules))
        assert [schedule.algorithm for schedule in improved] == [
            f"{schedule.algorithm}-LS" for schedule in schedules
        ]

    @pytest.mark.parametrize("group", [1, 2])
    def test_schedule_past_horizon_rejected(self, tiny_multi_instance, group):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        sink = next(n for n in dag.nodes() if not dag.successors(n))
        late = with_start(schedule, sink, tiny_multi_instance.deadline)
        with pytest.raises(InvalidScheduleError, match=re.escape(f"task {sink!r} at start")):
            local_search([schedule, late][-group:])
