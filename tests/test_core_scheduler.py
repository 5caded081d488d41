"""Tests for the CaWoSched facade."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

import repro.schedule.cost as cost_module
import repro.schedule.timeline as timeline_module
from repro.api.execute import execute_job
from repro.api.jobs import Job
from repro.core.local_search import local_search
from repro.core.scheduler import CaWoSched
from repro.core.variants import GREEDY_VARIANTS, LS_VARIANTS, variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import load_instance
from repro.schedule.cost import carbon_cost, carbon_cost_per_time_unit
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
        scheduler = CaWoSched(block_size=2, window=5)
        assert scheduler.block_size == 2
        assert scheduler.window == 5


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

    @pytest.mark.parametrize("spec", SHARED_GREEDY_SPECS[:2], ids=lambda spec: spec.label)
    def test_ls_cost_from_the_search_timeline_matches_recomputation(self, spec):
        instance = make_instance(spec)
        for name in LS_VARIANTS:
            result = CaWoSched().run(instance, name)
            # The reported cost is the one the local search's timeline held.
            assert result.schedule._cost == result.carbon_cost
            assert result.carbon_cost == carbon_cost_per_time_unit(result.schedule)
            assert result.carbon_cost == carbon_cost(result.schedule.copy())

    def test_parent_schedule_unchanged_by_its_ls_twin(self):
        # In a job of all variants each -LS variant refines its parent's
        # schedule; the parent's own result must come out as if run alone.
        instance = make_instance(SHARED_GREEDY_SPECS[0])
        alone = {name: CaWoSched().run(instance, name) for name in GREEDY_VARIANTS}
        results, _ = execute_job(Job.from_instance(instance, variants=variant_names()))
        by_name = {result.variant: result for result in results}
        for name in GREEDY_VARIANTS:
            parent = by_name[name]
            assert parent.schedule.start_times() == alone[name].schedule.start_times()
            assert carbon_cost(parent.schedule) == parent.carbon_cost == alone[name].carbon_cost
            assert by_name[f"{name}-LS"].carbon_cost <= parent.carbon_cost


IDENTITY = Path(__file__).parent / "data" / "identity"


class TestSharedPowerRows:
    """A greedy result's excess row, built by its cost, seeds its ``-LS`` search."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in IDENTITY.glob("*.json") if p.name != "expected.json")
    )
    def test_nine_power_rows_per_job(self, name, monkeypatch):
        instance = load_instance(IDENTITY / name)
        built = []
        excess_row = cost_module._excess_row

        def counted(*args):
            built.append(args)
            return excess_row(*args)

        monkeypatch.setattr(cost_module, "_excess_row", counted)
        monkeypatch.setattr(timeline_module, "_excess_row", counted)
        execute_job(Job.from_instance(instance, variants=variant_names()))
        # ASAP and the eight greedy results are costed; the eight -LS
        # searches start from their parents' rows.
        assert len(built) == 9

    @pytest.mark.parametrize("group", [1, len(GREEDY_VARIANTS)])
    def test_moves_leave_the_parent_cost_and_row(self, group):
        # On this instance the search moves tasks of the first parent.
        instance = make_instance(SHARED_GREEDY_SPECS[2])
        parents = [CaWoSched().run(instance, name) for name in list(GREEDY_VARIANTS)[:group]]
        rows = [parent.schedule._excess.copy() for parent in parents]
        improved = local_search([parent.schedule for parent in parents])
        assert improved[0].start_times() != parents[0].schedule.start_times()
        for parent, row in zip(parents, rows):
            # The parent's row is shared read-only; the search moved a copy.
            assert not parent.schedule._excess.flags.writeable
            assert np.array_equal(parent.schedule._excess, row)
            assert carbon_cost(parent.schedule) == parent.carbon_cost


class TestSharedLocalSearchTime:
    """An ``-LS`` time is its parent's plus its own local search and validation."""

    def test_each_ls_time_adds_its_own_span(self, tiny_multi_instance, monkeypatch):
        # Every timed span is two clock reads, 0.25 s apart: each greedy run
        # and each -LS variant's local search with its validation.
        ticks = itertools.count(start=10.0, step=0.25)
        monkeypatch.setattr("repro.core.scheduler.time.perf_counter", lambda: next(ticks))
        results, _ = execute_job(Job.from_instance(tiny_multi_instance, variants=variant_names()))
        by_name = {result.variant: result for result in results}
        spans = [
            by_name[name].runtime_seconds - by_name[name[: -len("-LS")]].runtime_seconds
            for name in LS_VARIANTS
        ]
        assert by_name["pressWR"].runtime_seconds == 0.25
        assert spans == [0.25] * len(LS_VARIANTS)

    def test_lone_variant_times_its_own_greedy_phase(self, tiny_multi_instance, monkeypatch):
        ticks = itertools.count(start=10.0, step=0.25)
        monkeypatch.setattr("repro.core.scheduler.time.perf_counter", lambda: next(ticks))
        variants = ["slack-LS", "pressWR", "pressWR-LS"]
        results, _ = execute_job(Job.from_instance(tiny_multi_instance, variants=variants))
        assert [result.variant for result in results] == variants
        # slack-LS: its own greedy schedule (0.25 s) plus its own search.
        assert [result.runtime_seconds for result in results] == [0.5, 0.25, 0.5]

    def test_every_ls_time_covers_its_parent(self):
        instance = make_instance(SHARED_GREEDY_SPECS[2])
        results, _ = execute_job(Job.from_instance(instance, variants=variant_names()))
        by_name = {result.variant: result for result in results}
        for name in LS_VARIANTS:
            parent = by_name[name[: -len("-LS")]]
            assert by_name[name].runtime_seconds >= parent.runtime_seconds
