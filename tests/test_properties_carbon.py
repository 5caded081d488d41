"""Property-based tests for power profiles, scenarios and budgets."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.intervals import PowerProfile
from repro.carbon.scenarios import generate_power_profile
from repro.carbon.traces import profile_from_trace, synthetic_daily_trace
from schedule_helpers import profile_from_time_unit_budgets


profiles = st.builds(
    PowerProfile,
    st.lists(st.integers(1, 20), min_size=1, max_size=10),
    st.lists(st.integers(0, 50), min_size=10, max_size=10),
).map(lambda p: p)


@st.composite
def random_profiles(draw):
    lengths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=10))
    budgets = draw(
        st.lists(st.integers(0, 50), min_size=len(lengths), max_size=len(lengths))
    )
    return PowerProfile(lengths, budgets)


class TestProfileInvariants:
    @given(profile=random_profiles())
    @settings(max_examples=50, deadline=None)
    def test_horizon_equals_sum_of_lengths(self, profile):
        assert profile.horizon == sum(iv.length for iv in profile)
        assert profile.boundaries()[0] == 0
        assert profile.boundaries()[-1] == profile.horizon

    @given(profile=random_profiles())
    @settings(max_examples=50, deadline=None)
    def test_budget_at_matches_per_time_unit_array(self, profile):
        budgets = profile.budgets_per_time_unit()
        for t in range(profile.horizon):
            assert budgets[t] == profile.budget_at(t)

    @given(profile=random_profiles())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_time_unit_budgets(self, profile):
        rebuilt = profile_from_time_unit_budgets(profile.budgets_per_time_unit())
        assert np.array_equal(
            rebuilt.budgets_per_time_unit(), profile.budgets_per_time_unit()
        )
        # The rebuilt profile merges equal-budget neighbours, so it can only
        # have fewer or equally many intervals.
        assert rebuilt.num_intervals <= profile.num_intervals


class TestScenarioInvariants:
    @given(
        scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
        horizon=st.integers(1, 500),
        idle=st.integers(0, 200),
        work=st.integers(0, 1000),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_budgets_within_paper_bounds(self, scenario, horizon, idle, work, seed):
        profile = generate_power_profile(
            scenario, horizon, idle_power=idle, work_power=work, rng=seed
        )
        assert profile.horizon == horizon
        for interval in profile:
            assert idle <= interval.budget <= idle + int(0.8 * work) + 1

    @given(
        kind=st.sampled_from(["solar", "wind", "nuclear", "coal"]),
        horizon=st.integers(1, 300),
        idle=st.integers(0, 100),
        work=st.integers(0, 500),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_profiles_within_bounds(self, kind, horizon, idle, work, seed):
        trace = synthetic_daily_trace(kind, rng=seed)
        profile = profile_from_trace(trace, horizon, idle_power=idle, work_power=work)
        assert profile.horizon == horizon
        for interval in profile:
            assert idle <= interval.budget <= idle + int(0.8 * work) + 1
