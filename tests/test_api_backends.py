"""Tests for the client's two execution paths: inline and the process pool."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Client, Job, execute_job
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance

VARIANTS = ("ASAP", "pressWR-LS")


def _jobs():
    specs = [
        InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=3),
        InstanceSpec("chain", 8, "single", "S4", 2.0, seed=3),
    ]
    return [Job.from_spec(spec, variants=VARIANTS, master_seed=7) for spec in specs]


def _strip_runtimes(records):
    return [dataclasses.replace(r, runtime_seconds=0.0) for r in records]


class TestExecutionEquivalence:
    @pytest.fixture(scope="class")
    def inline_results(self):
        return Client().submit_many(_jobs())

    @pytest.fixture(scope="class")
    def pooled_results(self):
        return Client(jobs=2).submit_many(_jobs())

    def test_pool_backends_match_inline_records(self, inline_results, pooled_results):
        assert len(pooled_results) == len(inline_results) == 2
        for inline, pooled in zip(inline_results, pooled_results):
            assert pooled.fingerprint == inline.fingerprint
            assert _strip_runtimes(pooled.records) == _strip_runtimes(inline.records)
        assert [r.backend for r in inline_results] == ["inline", "inline"]
        assert [r.backend for r in pooled_results] == ["process", "process"]

    def test_in_process_backends_retain_full_results(self, inline_results):
        assert inline_results[0].results is not None
        assert [r.variant for r in inline_results[0].results] == list(VARIANTS)

    def test_process_backend_ships_records_only(self, pooled_results):
        assert all(result.results is None for result in pooled_results)
        assert [len(result.records) for result in pooled_results] == [2, 2]

    def test_execute_job_matches_direct_scheduler(self):
        instance = make_instance(InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=1))
        direct = CaWoSched().run(instance, "pressWR")
        results, records = execute_job(Job.from_instance(instance, variants=("pressWR",)))
        assert results[0].carbon_cost == direct.carbon_cost == records[0].carbon_cost
        assert results[0].schedule.start_times() == direct.schedule.start_times()


class TestLiveInstanceReuse:
    def test_inline_reuses_live_instance(self):
        instance = make_instance(InstanceSpec("chain", 6, "single", "S4", 2.0, seed=0))
        result = Client().submit(Job.from_instance(instance, variants=("ASAP",)))
        assert result.results[0].schedule.instance is instance
