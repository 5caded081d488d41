"""Tests for the client facade (:mod:`repro.api.client`).

Includes the acceptance test of the facade redesign: the same canonical
job fingerprint deduplicates across the batch path and the ``solve`` path,
and the cache-eviction recompute branch is exercised with a cache bound
smaller than the batch width.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.api.execute as execute_module
from repro.api import (
    BackendFailure,
    Client,
    InvalidJob,
    Job,
    UnknownVariant,
)
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance

VARIANTS = ("ASAP", "pressWR-LS")


@pytest.fixture
def grid_instance():
    return make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1))


@pytest.fixture
def other_instance():
    return make_instance(InstanceSpec("chain", 8, "single", "S4", 2.0, seed=0))


@pytest.fixture
def third_instance():
    return make_instance(InstanceSpec("bacass", 15, "small", "S3", 1.5, seed=1))


def _counting(monkeypatch):
    calls = []
    original = execute_module.execute_job

    def wrapper(job, **kwargs):
        calls.append(job)
        return original(job, **kwargs)

    monkeypatch.setattr(execute_module, "execute_job", wrapper)
    return calls


class TestSubmission:
    def test_duplicates_computed_once(self, grid_instance, monkeypatch):
        calls = _counting(monkeypatch)
        client = Client(cache_size=8)
        job = Job.from_instance(grid_instance, variants=VARIANTS)
        results = client.submit_many([job, job, job])
        assert len(calls) == 1
        assert [r.cached for r in results] == [False, True, True]
        assert results[0].records == results[1].records == results[2].records
        assert client.computed == 1

    def test_validation_happens_before_dispatch(self, grid_instance, monkeypatch):
        calls = _counting(monkeypatch)
        client = Client(cache_size=8)
        good = Job.from_instance(grid_instance, variants=("ASAP",))
        bad = Job.from_instance(grid_instance, variants=("NOPE",))
        with pytest.raises(UnknownVariant):
            client.submit_many([good, bad])
        assert calls == []  # nothing ran: the batch was rejected up front

    def test_empty_variants_rejected(self, grid_instance):
        job = Job(payload=Job.from_instance(grid_instance).payload, variants=())
        with pytest.raises(InvalidJob):
            Client().submit(job)

    def test_backend_failures_are_wrapped(self):
        # Both execution paths: inline (jobs=1) and the process pool.
        bogus = Job(payload={"bogus": 1}, variants=("ASAP",))
        other = Job(payload={"bogus": 2}, variants=("ASAP",))
        for client, backend in ((Client(cache_size=8), "inline"),
                                (Client(jobs=2, cache_size=8), "process")):
            with pytest.raises(BackendFailure, match="missing field") as excinfo:
                client.submit_many([bogus, other])
            assert str(excinfo.value).startswith(f"backend {backend!r} failed: ")
            assert excinfo.value.__cause__ is not None
            assert excinfo.value.exit_code == 4

    def test_eviction_recompute_branch(
        self, grid_instance, other_instance, third_instance, monkeypatch
    ):
        # Satellite: a cache bound smaller than the batch width forces the
        # first unique entry out before its duplicate is answered, hitting
        # the recompute branch inside one submit_many call.
        calls = _counting(monkeypatch)
        client = Client(cache_size=1)
        a = Job.from_instance(grid_instance, variants=("ASAP",))
        b = Job.from_instance(other_instance, variants=("ASAP",))
        c = Job.from_instance(third_instance, variants=("ASAP",))
        results = client.submit_many([a, b, c, a])
        # Three unique jobs computed, then "a" recomputed after eviction.
        assert len(calls) == 4
        assert [r.cached for r in results] == [False, False, False, False]
        # The recompute re-measures wall clock; everything else is identical.
        strip = lambda recs: [  # noqa: E731
            dataclasses.replace(r, runtime_seconds=0.0) for r in recs
        ]
        assert strip(results[0].records) == strip(results[3].records)
        assert client.computed == 4
        assert client.cache.evictions >= 2


class TestCrossPathDedupe:
    def test_solve_then_submit_dedupes(self, grid_instance, monkeypatch):
        # Acceptance: the same Job fingerprint dedupes across the solve
        # path and the batch path.
        calls = _counting(monkeypatch)
        client = Client(cache_size=8)
        solved = client.solve(grid_instance, "pressWR-LS")
        job = Job.from_instance(grid_instance, variants=("pressWR-LS",))
        batched = client.submit(job)
        assert len(calls) == 1
        assert batched.cached is True
        assert batched.fingerprint == job.fingerprint
        assert batched.records[0].carbon_cost == solved.carbon_cost

    def test_submit_then_solve_dedupes(self, grid_instance, monkeypatch):
        calls = _counting(monkeypatch)
        client = Client(cache_size=8)
        job = Job.from_instance(grid_instance, variants=("pressWR-LS",))
        batched = client.submit(job)
        solved = client.solve(grid_instance, "pressWR-LS")
        assert len(calls) == 1
        assert client.solved == 0  # answered from the shared cache
        assert solved.carbon_cost == batched.records[0].carbon_cost

    def test_solve_identity_served_from_cache(self, grid_instance):
        client = Client(cache_size=8)
        first = client.solve(grid_instance, "pressWR")
        second = client.solve(grid_instance, "pressWR")
        assert second is first
        assert client.solved == 1

    def test_records_only_entry_upgraded_for_solve(self, grid_instance):
        # The process pool ships flat records; a later solve of the same
        # job recomputes once and upgrades the cache entry in place.
        client = Client(jobs=2, cache_size=8)
        job = Job.from_instance(grid_instance, variants=("ASAP",))
        other = Job.from_instance(grid_instance, variants=("slack",))
        batched = client.submit_many([job, other])[0]
        assert batched.results is None
        solved = client.solve(grid_instance, "ASAP")
        assert solved.carbon_cost == batched.records[0].carbon_cost
        assert client.solved == 1
        assert client.solve(grid_instance, "ASAP") is solved


class TestLabelFidelity:
    def test_cached_records_carry_the_requesting_jobs_labels(self, grid_instance):
        # The fingerprint ignores labels, but records are labelled output:
        # a cache hit for a differently-labelled twin must re-stamp the
        # requester's name/metadata, exactly as a fresh run would.
        from repro.schedule.instance import ProblemInstance

        relabelled = ProblemInstance(
            grid_instance.dag,
            grid_instance.profile,
            name="twin-instance",
            metadata={"family": "twin-family", "cluster": "twin-cluster",
                      "scenario": "S9", "deadline_factor": 9.0},
        )
        client = Client(cache_size=8)
        first = Job.from_instance(grid_instance, variants=("ASAP",))
        second = Job.from_instance(relabelled, variants=("ASAP",))
        responses = client.submit_many([first, second])
        assert responses[1].cached is True  # deduped on content
        record = responses[1].records[0]
        assert record.instance == "twin-instance"
        assert record.family == "twin-family"
        assert record.cluster == "twin-cluster"
        assert record.scenario == "S9"
        assert record.deadline_factor == 9.0
        # The computed occurrence keeps its own labels.
        assert responses[0].records[0].instance == grid_instance.name
        assert record.carbon_cost == responses[0].records[0].carbon_cost

    def test_cached_spec_job_carries_its_own_labels(self):
        # A spec job answered from an entry computed for a differently
        # labelled payload twin must carry the labels of the instance the
        # spec materialises, exactly as a fresh run of the spec would.
        from repro.schedule.instance import ProblemInstance

        spec = InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=1)
        built = make_instance(spec)
        twin = ProblemInstance(
            built.dag,
            built.profile,
            name="twin",
            metadata={"family": "twin-family", "cluster": "twin-cluster",
                      "scenario": "S9", "deadline_factor": 9.0},
        )
        client = Client(cache_size=8)
        responses = client.submit_many([
            Job.from_instance(twin, variants=VARIANTS),
            Job.from_spec(spec, variants=VARIANTS),
        ])
        assert responses[1].cached is True  # deduped on content
        assert responses[0].records[0].instance == "twin"
        fresh = Client().submit(Job.from_spec(spec, variants=VARIANTS))
        strip = lambda recs: [  # noqa: E731
            dataclasses.replace(r, runtime_seconds=0.0) for r in recs
        ]
        assert strip(responses[1].records) == strip(fresh.records)
        record = responses[1].records[0]
        assert record.instance == "bacass-12-small-S1-d1.5"
        assert record.scenario == "S1"
        assert record.deadline_factor == 1.5


class TestErrorTaxonomy:
    def test_solve_wraps_execution_failures(self, grid_instance, monkeypatch):
        def broken(self, instance, variant):
            raise RuntimeError("boom")

        monkeypatch.setattr(CaWoSched, "run", broken)
        with pytest.raises(BackendFailure, match="backend 'inline' failed: boom"):
            Client().solve(grid_instance, "ASAP")


class TestStats:
    def test_stats_shape(self, grid_instance):
        client = Client(cache_size=4)
        job = Job.from_instance(grid_instance, variants=("ASAP",))
        client.submit_many([job, job])
        client.solve(grid_instance, "ASAP")
        stats = client.stats()
        assert stats["submitted"] == 2
        assert stats["computed"] == 1
        assert stats["solve_hits"] == 1
        assert stats["backend"] == "inline"
        assert Client(jobs=2).stats()["backend"] == "process"
        assert stats["size"] == 1
