"""Tests for the CaWoSched facade."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.api.execute import execute_job
from repro.api.jobs import Job
from repro.core.scheduler import CaWoSched
from repro.core.variants import GREEDY_VARIANTS, variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import instance_from_dict, instance_to_dict
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


#: Grid cells covering two families, both clusters and two scenarios.
SHARED_GREEDY_SPECS = (
    InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1),
    InstanceSpec("bacass", 15, "large", "S2", 2.0, seed=2),
    InstanceSpec("atacseq", 20, "small", "S2", 1.5, seed=3),
    InstanceSpec("atacseq", 20, "large", "S1", 3.0, seed=4),
)


def _outcome(result):
    return result.schedule.start_times(), result.carbon_cost, result.makespan


class TestSharedGreedyPhase:
    """``-LS`` variants refining their parent's schedule within one job."""

    @pytest.mark.parametrize("spec", SHARED_GREEDY_SPECS, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("order", ["parents_first", "reversed"])
    def test_execute_job_matches_standalone_runs(self, spec, order):
        instance = make_instance(spec)
        variants = variant_names()
        if order == "reversed":
            # Every -LS variant precedes its parent, so nothing is shared.
            variants = variants[::-1]
        standalone = {name: CaWoSched().run(instance, name) for name in variants}
        results, _ = execute_job(Job.from_instance(instance, variants=variants))
        assert [result.variant for result in results] == variants
        for result in results:
            assert _outcome(result) == _outcome(standalone[result.variant])

    def test_parent_schedule_unchanged_by_its_ls_twin(self):
        instance = make_instance(SHARED_GREEDY_SPECS[0])
        scheduler = CaWoSched()
        for name in GREEDY_VARIANTS:
            parent = scheduler.run(instance, name)
            before = parent.schedule.start_times()
            child = scheduler.run(instance, f"{name}-LS", parent=parent)
            assert parent.schedule.start_times() == before
            assert child.carbon_cost <= parent.carbon_cost


class TestParentContract:
    def test_wrong_parent_variant_rejected(self, tiny_multi_instance):
        scheduler = CaWoSched()
        parent = scheduler.run(tiny_multi_instance, "slack")
        with pytest.raises(CaWoSchedError, match="refines 'press'"):
            scheduler.run(tiny_multi_instance, "press-LS", parent=parent)

    def test_parent_from_another_instance_rejected(self, tiny_multi_instance):
        twin = instance_from_dict(instance_to_dict(tiny_multi_instance))
        assert instance_to_dict(twin) == instance_to_dict(tiny_multi_instance)
        scheduler = CaWoSched()
        parent = scheduler.run(twin, "pressWR")
        with pytest.raises(CaWoSchedError, match="another instance"):
            scheduler.run(tiny_multi_instance, "pressWR-LS", parent=parent)

    @pytest.mark.parametrize("variant", ["pressWR", "ASAP"])
    def test_parent_for_non_ls_variant_rejected(self, tiny_multi_instance, variant):
        scheduler = CaWoSched()
        parent = scheduler.run(tiny_multi_instance, "pressWR")
        with pytest.raises(CaWoSchedError, match="only accepted for -LS variants"):
            scheduler.run(tiny_multi_instance, variant, parent=parent)

    def test_runtime_adds_parent_and_own_elapsed(self, tiny_multi_instance, monkeypatch):
        scheduler = CaWoSched()
        parent = dataclasses.replace(
            scheduler.run(tiny_multi_instance, "slackR"), runtime_seconds=1.5
        )
        ticks = itertools.count(start=10.0, step=0.25)
        monkeypatch.setattr("repro.core.scheduler.time.perf_counter", lambda: next(ticks))
        result = scheduler.run(tiny_multi_instance, "slackR-LS", parent=parent)
        # One clock read before and one after the local search: 0.25 s own time.
        assert result.runtime_seconds == parent.runtime_seconds + 0.25
