"""Tests for the CaWoSched facade."""

from __future__ import annotations

import pytest

from repro.core.scheduler import CaWoSched
from repro.core.variants import variant_names
from repro.schedule.cost import carbon_cost
from repro.schedule.validation import is_feasible
from repro.utils.errors import CaWoSchedError


class TestCaWoSched:
    def test_run_returns_consistent_result(self, tiny_multi_instance):
        result = CaWoSched().run(tiny_multi_instance, "pressWR-LS")
        assert result.variant == "pressWR-LS"
        assert result.carbon_cost == carbon_cost(result.schedule)
        assert result.makespan == result.schedule.makespan
        assert result.runtime_seconds >= 0

    def test_all_variants_feasible(self, tiny_multi_instance):
        scheduler = CaWoSched()
        for name in variant_names():
            result = scheduler.run(tiny_multi_instance, name)
            assert result.variant == name
            assert is_feasible(result.schedule)

    def test_ls_variant_never_worse_than_greedy(self, tiny_multi_instance):
        scheduler = CaWoSched()
        results = {
            name: scheduler.run(tiny_multi_instance, name) for name in variant_names()
        }
        for greedy_name in ("slack", "slackW", "slackR", "slackWR",
                            "press", "pressW", "pressR", "pressWR"):
            assert results[f"{greedy_name}-LS"].carbon_cost <= results[greedy_name].carbon_cost

    def test_asap_schedule_matches_baseline(self, tiny_multi_instance):
        from repro.schedule.asap import asap_schedule

        result = CaWoSched().run(tiny_multi_instance, "ASAP")
        assert result.schedule.start_times() == asap_schedule(tiny_multi_instance).start_times()

    def test_unknown_variant_rejected(self, tiny_multi_instance):
        with pytest.raises(CaWoSchedError):
            CaWoSched().run(tiny_multi_instance, "not-a-variant")

    def test_run_subset(self, tiny_multi_instance):
        scheduler = CaWoSched(block_size=2, window=5)
        for name in ("ASAP", "slackR", "slack-LS"):
            result = scheduler.run(tiny_multi_instance, name)
            assert result.variant == name
            assert is_feasible(result.schedule)

    def test_parameters_are_stored(self):
        scheduler = CaWoSched(block_size=2, window=5, validate=False)
        assert scheduler.block_size == 2
        assert scheduler.window == 5
        assert scheduler.validate is False

    def test_validation_can_be_disabled(self, tiny_multi_instance):
        # With validation disabled the run must still succeed and produce the
        # same schedule.
        a = CaWoSched(validate=True).schedule(tiny_multi_instance, "pressR")
        b = CaWoSched(validate=False).schedule(tiny_multi_instance, "pressR")
        assert a.start_times() == b.start_times()
