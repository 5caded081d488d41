"""Tests for the greedy CaWoSched phase and its budget bookkeeping.

``greedy_schedule`` scans and splits the budget intervals inline; the
tests-side :class:`~schedule_helpers.BudgetIntervals` is the reference for
that bookkeeping, and :func:`~schedule_helpers.reference_greedy` assembles a
greedy phase from it and the public ``EstLstTracker.fix``.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.intervals import PowerProfile
from repro.core.greedy import greedy_schedule
from repro.core.scheduler import CaWoSched
from repro.core.variants import ALL_VARIANTS, GREEDY_VARIANTS
from repro.experiments.instances import InstanceSpec, make_instance
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.mapping.mapping import Mapping
from repro.platform_.presets import cluster_preset, uniform_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.validation import is_feasible
from repro.utils.errors import CaWoSchedError
from repro.workflow.dag import Workflow
from repro.workflow.generators import generate_workflow
from schedule_helpers import BudgetIntervals, reference_greedy, with_zero_durations


class TestBudgetIntervals:
    @pytest.fixture
    def profile(self) -> PowerProfile:
        return PowerProfile([5, 5, 5], [2, 9, 4])

    def test_initial_intervals_match_profile(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.intervals() == [(0, 5, 2), (5, 10, 9), (10, 15, 4)]

    def test_extra_subdivision_points_split_intervals(self, profile):
        budgets = BudgetIntervals(profile, [0, 3, 5, 12])
        assert (0, 3, 2) in budgets.intervals()
        assert (3, 5, 2) in budgets.intervals()
        assert (12, 15, 4) in budgets.intervals()

    def test_best_start_prefers_highest_budget(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.best_start(0, 14) == 5  # budget 9 interval

    def test_best_start_tie_breaks_earliest(self, profile):
        tie_profile = PowerProfile([5, 5], [7, 7])
        budgets = BudgetIntervals(tie_profile, [0, 5])
        assert budgets.best_start(0, 9) == 0

    def test_best_start_respects_window(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.best_start(6, 14) == 10
        assert budgets.best_start(1, 4) is None

    def test_consume_reduces_budget_and_splits(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        budgets.consume(3, 7, power=4)
        intervals = dict(
            ((begin, end), budget) for begin, end, budget in budgets.intervals()
        )
        assert intervals[(0, 3)] == 2
        assert intervals[(3, 5)] == 2 - 4
        assert intervals[(5, 7)] == 9 - 4
        assert intervals[(7, 10)] == 9

    def test_consume_is_clipped_to_horizon(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        budgets.consume(12, 99, power=1)
        assert budgets.intervals()[-1][2] == 3

    def test_consume_empty_window_is_noop(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        before = budgets.intervals()
        budgets.consume(7, 7, power=10)
        assert budgets.intervals() == before

    def test_intervals_remain_contiguous_after_many_consumes(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        for begin, end in [(1, 4), (4, 9), (9, 15), (0, 15), (2, 3)]:
            budgets.consume(begin, end, power=1)
        intervals = budgets.intervals()
        assert intervals[0][0] == 0
        assert intervals[-1][1] == 15
        for (b1, e1, _), (b2, e2, _) in zip(intervals, intervals[1:]):
            assert e1 == b2


class TestGreedySchedule:
    @pytest.mark.parametrize(
        "base,weighted,refined",
        list(itertools.product(["slack", "pressure"], [False, True], [False, True])),
    )
    def test_all_variants_produce_feasible_schedules(
        self, tiny_multi_instance, base, weighted, refined
    ):
        schedule = greedy_schedule(
            tiny_multi_instance, base=base, weighted=weighted, refined=refined
        )
        assert is_feasible(schedule)

    def test_greedy_never_worse_than_asap_on_green_middle_profile(
        self, tiny_multi_instance
    ):
        """On this instance the green budget is larger late, so the greedy
        must find a schedule at most as expensive as ASAP."""
        greedy = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        baseline = asap_schedule(tiny_multi_instance)
        assert carbon_cost(greedy) <= carbon_cost(baseline)

    def test_unknown_base_rejected(self, tiny_multi_instance):
        with pytest.raises(CaWoSchedError):
            greedy_schedule(tiny_multi_instance, base="priority")

    def test_algorithm_names(self, tiny_multi_instance):
        assert (
            greedy_schedule(tiny_multi_instance, base="slack").algorithm == "slack"
        )
        # Every configuration is labelled with its variant name; CaWoSched
        # relies on it, since the local search labels its result
        # "<greedy label>-LS".
        for name in GREEDY_VARIANTS:
            spec = ALL_VARIANTS[name]
            schedule = greedy_schedule(
                tiny_multi_instance, base=spec.base, weighted=spec.weighted,
                refined=spec.refined,
            )
            assert schedule.algorithm == name
            assert f"{name}-LS" in ALL_VARIANTS

    def test_deterministic(self, tiny_multi_instance):
        a = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        b = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        assert a.start_times() == b.start_times()

    def test_single_processor_instance(self, tiny_single_instance):
        schedule = greedy_schedule(tiny_single_instance, base="slack", refined=True)
        assert is_feasible(schedule)


@st.composite
def _budget_scenarios(draw):
    """A profile, extra subdivision points and a sequence of operations."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    budgets = draw(st.lists(st.integers(0, 9), min_size=len(lengths), max_size=len(lengths)))
    profile = PowerProfile(lengths, budgets)
    horizon = profile.horizon
    points = draw(st.lists(st.integers(0, horizon + 2), max_size=6))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["consume", "best_start"]),
                st.integers(-2, horizon + 2),
                st.integers(-2, horizon + 2),
                st.integers(0, 5),
            ),
            max_size=12,
        )
    )
    return profile, points, operations


class TestBudgetIntervalsAgainstTimeUnits:
    """``best_start``/``consume`` against a naive per-time-unit budget row."""

    @settings(max_examples=200, deadline=None)
    @given(_budget_scenarios())
    def test_matches_per_time_unit_row(self, scenario):
        profile, points, operations = scenario
        horizon = profile.horizon
        budgets = BudgetIntervals(profile, points)
        # The naive model: one budget per time unit and the set of interval
        # starts (the initial subdivision plus every consumed window's ends).
        row = [profile.budget_at(time) for time in range(horizon)]
        starts = {0} | {iv.begin for iv in profile.intervals()}
        starts |= {point for point in points if 0 <= point < horizon}
        for kind, first, second, power in operations:
            if kind == "consume":
                budgets.consume(first, second, power)
                begin, end = max(0, first), min(horizon, second)
                if begin < end:
                    starts |= {begin} | ({end} if end < horizon else set())
                    for time in range(begin, end):
                        row[time] -= power
            else:
                candidates = [p for p in sorted(starts) if first <= p <= second]
                expected = max(candidates, key=row.__getitem__) if candidates else None
                assert budgets.best_start(first, second) == expected
            begins = sorted(starts)
            assert budgets.intervals() == [
                (begin, end, row[begin])
                for begin, end in zip(begins, begins[1:] + [horizon])
            ]
            for begin, end, budget in budgets.intervals():
                assert row[begin:end] == [budget] * (end - begin)


#: Instances for the shared greedy set-up (small and large cluster).
MEMO_SPECS = (
    InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1),
    InstanceSpec("atacseq", 20, "large", "S2", 2.0, seed=4),
)


def _greedy_starts(instance, name):
    spec = ALL_VARIANTS[name]
    return greedy_schedule(
        instance, base=spec.base, weighted=spec.weighted, refined=spec.refined
    ).start_times()


class TestSharedGreedySetUp:
    """Greedy runs on one instance share its memoised inputs."""

    @pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_instance_matches_fresh_instances(self, spec, seed):
        names = list(GREEDY_VARIANTS)
        random.Random(seed).shuffle(names)
        warm = make_instance(spec)
        for name in names:
            # Every variant on a fresh instance computes its own inputs; on
            # the warm instance it reuses what the earlier variants stored.
            assert _greedy_starts(warm, name) == _greedy_starts(make_instance(spec), name)

    @pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda spec: spec.label)
    def test_block_sizes_on_one_instance_match_fresh_runs(self, spec):
        shared = make_instance(spec)
        for block_size in (2, 3, 2):
            scheduler = CaWoSched(block_size=block_size)
            for name in ("slackR", "pressWR-LS"):
                warm = scheduler.run(shared, name)
                fresh = scheduler.run(make_instance(spec), name)
                assert warm.schedule.start_times() == fresh.schedule.start_times()
                assert warm.carbon_cost == fresh.carbon_cost
        # One subdivision per block size, plus none for the original one.
        keys = {key for key in shared._memo if key[0] == "greedy_budgets"}
        assert keys == {("greedy_budgets", 2), ("greedy_budgets", 3)}

    def test_memoised_template_unchanged_by_a_run(self):
        instance = make_instance(MEMO_SPECS[0])
        greedy_schedule(instance, base="pressure", weighted=True, refined=True)
        memo = instance._memo
        tracker = memo["greedy_tracker"]
        before = (
            tracker.est_map(), tracker.lst_map(), tracker.fixed_starts(),
            memo[("greedy_budgets", 3)],
            list(memo[("greedy_order", "pressure", True)]),
        )
        assert before[2] == {}
        for name in GREEDY_VARIANTS:
            _greedy_starts(instance, name)
        after = (
            tracker.est_map(), tracker.lst_map(), tracker.fixed_starts(),
            memo[("greedy_budgets", 3)],
            list(memo[("greedy_order", "pressure", True)]),
        )
        assert after == before
        # The budget template is a pair of tuples, which no run can edit.
        assert all(type(row) is tuple for row in memo[("greedy_budgets", 3)])
        # Four (base, weighted) orders, one tracker and its EST/LST maps,
        # two subdivisions.
        assert len(memo) == 1 + 1 + 4 + 2


@st.composite
def _greedy_instances(draw):
    """Small generated instances with tight deadlines and tied budgets.

    A deadline of at most twice the critical path (often exactly it) makes
    many tasks' windows end at the horizon; budgets drawn from three values
    make equal-budget intervals common, so the first-maximum tie-break
    decides many placements; some nodes take no time and spend no budget.
    """
    family = draw(st.sampled_from(["atacseq", "bacass", "eager", "forkjoin", "chain"]))
    seed = draw(st.integers(0, 10**6))
    workflow = generate_workflow(family, draw(st.integers(4, 16)), rng=seed)
    cluster = draw(
        st.sampled_from(
            [cluster_preset("small"), cluster_preset("single"),
             uniform_cluster(2, p_idle=1, p_work=2)]
        )
    )
    dag = build_enhanced_dag(heft_mapping(workflow, cluster).mapping, rng=seed)
    zero = draw(st.sets(st.sampled_from(dag.nodes()), max_size=2), label="zero")
    dag = with_zero_durations(dag, zero)
    critical = dag.critical_path_duration()
    deadline = max(1, critical + draw(st.integers(0, critical), label="slack"))
    cuts = []
    if deadline > 1:
        cuts = sorted(draw(st.sets(st.integers(1, deadline - 1), max_size=8), label="cuts"))
    bounds = [0, *cuts, deadline]
    lengths = [end - begin for begin, end in zip(bounds, bounds[1:])]
    budgets = draw(
        st.lists(st.sampled_from([0, 120, 400]), min_size=len(lengths), max_size=len(lengths)),
        label="budgets",
    )
    return ProblemInstance(dag, PowerProfile(lengths, budgets))


class TestGreedyMatchesReference:
    """The inline placement loop places what the reference greedy places."""

    # A zero-duration task with no slack has a NaN pressure (0 / 0); both
    # sides order it through the same task_order.
    @settings(max_examples=150, deadline=None)
    @given(
        _greedy_instances(),
        st.sampled_from(["slack", "pressure"]),
        st.booleans(),
        st.booleans(),
        st.integers(1, 4),
    )
    def test_generated_instances(self, instance, base, weighted, refined, block_size):
        produced = greedy_schedule(
            instance, base=base, weighted=weighted, refined=refined, block_size=block_size
        ).start_times()
        expected = reference_greedy(
            instance, base=base, weighted=weighted, refined=refined, block_size=block_size
        )
        # Same starts, placed in the same order.
        assert list(produced.items()) == list(expected.items())

    @pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("name", sorted(GREEDY_VARIANTS))
    def test_grid_instances(self, spec, name):
        instance = make_instance(spec)
        variant = ALL_VARIANTS[name]
        expected = reference_greedy(
            instance, base=variant.base, weighted=variant.weighted,
            refined=variant.refined, block_size=3,
        )
        assert list(_greedy_starts(instance, name).items()) == list(expected.items())

    def test_equal_budgets_pick_the_earliest_interval(self, single_cluster):
        # One task fits in either interval; both hold the same budget.
        workflow = Workflow("one")
        workflow.add_task("t", work=2)
        dag = build_enhanced_dag(Mapping(workflow, single_cluster, {"t": "p0"}), rng=0)
        instance = ProblemInstance(dag, PowerProfile([3, 3, 4], [5, 9, 9]))
        schedule = greedy_schedule(instance, base="slack")
        assert schedule.start("t") == 3
