"""Tests for the scheduling client built by :mod:`repro.api`.

Covers the result cache, the worker pool, batch-file job entries, and
batched and single-variant submission through a :class:`Client`.
"""

from __future__ import annotations

import pytest

import repro.api.execute as execute_module
from repro.api import Client, InvalidJob, Job, ResultCache, parallel_map
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import instance_to_dict


@pytest.fixture
def grid_instance():
    spec = InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)
    return make_instance(spec)


@pytest.fixture
def other_instance():
    spec = InstanceSpec("chain", 8, "single", "S4", 2.0, seed=0)
    return make_instance(spec)


VARIANTS = ("ASAP", "pressWR-LS")


class TestResultCache:
    def test_get_put(self):
        cache = ResultCache(max_size=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound_respected(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        # "b" was least recently used, so it (not "a") was evicted.
        assert "a" in cache and "b" not in cache and "c" in cache

    def test_put_refreshes_existing_entry(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_size=0)


class TestParallelMap:
    def test_inline_path(self):
        assert parallel_map(str, [1, 2, 3], jobs=1) == ["1", "2", "3"]

    def test_process_pool_preserves_order(self):
        assert parallel_map(str, range(8), jobs=4) == [str(i) for i in range(8)]


class TestScheduleRequest:
    """Batch-file request entries parse into :class:`Job` objects."""

    def test_fingerprint_identical_for_identical_content(self, grid_instance):
        spec = InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)
        twin = make_instance(spec)
        first = Job.from_instance(grid_instance, variants=VARIANTS)
        second = Job.from_instance(twin, variants=VARIANTS)
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_depends_on_variants(self, grid_instance):
        first = Job.from_instance(grid_instance, variants=("ASAP",))
        second = Job.from_instance(grid_instance, variants=("slack",))
        assert first.fingerprint != second.fingerprint

    def test_fingerprint_depends_on_instance(self, grid_instance, other_instance):
        first = Job.from_instance(grid_instance, variants=VARIANTS)
        second = Job.from_instance(other_instance, variants=VARIANTS)
        assert first.fingerprint != second.fingerprint

    def test_dict_round_trip(self, grid_instance):
        request = Job.from_instance(grid_instance, variants=VARIANTS)
        clone = Job.from_dict(request.to_dict())
        assert clone.fingerprint == request.fingerprint

    def test_from_dict_with_spec(self, grid_instance):
        request = Job.from_dict(
            {
                "spec": {
                    "family": "bacass", "tasks": 15, "cluster": "small",
                    "scenario": "S1", "deadline_factor": 1.5, "seed": 1,
                },
                "variants": list(VARIANTS),
            }
        )
        inline = Job.from_instance(grid_instance, variants=VARIANTS)
        assert request.fingerprint == inline.fingerprint

    def test_from_dict_requires_instance_or_spec(self):
        with pytest.raises(InvalidJob):
            Job.from_dict({"variants": ["ASAP"]})

    def test_from_dict_rejects_malformed_scheduler_config(self, grid_instance):
        with pytest.raises(InvalidJob, match="malformed scheduler config"):
            Job.from_dict(
                {
                    "instance": instance_to_dict(grid_instance),
                    "scheduler": {"block_size": "huge"},
                }
            )

    def test_live_instance_not_part_of_identity(self, grid_instance):
        request = Job.from_instance(grid_instance, variants=VARIANTS)
        assert request.live_instance is grid_instance
        clone = Job.from_dict(request.to_dict())
        assert clone.live_instance is None
        assert clone == request
        assert clone.fingerprint == request.fingerprint
        assert "live_instance" not in request.to_dict()


class TestSchedulingService:
    """Batch submission through a :class:`Client`."""

    def _counting(self, monkeypatch):
        """Count scheduler invocations through the per-job execution core.

        ``execute_job`` sits on every in-process execution path (the inline
        and thread backends the client runs on), so patching it
        counts every job that is actually scheduled.
        """
        calls = []
        original = execute_module.execute_job

        def wrapper(job, **kwargs):
            calls.append(job)
            return original(job, **kwargs)

        monkeypatch.setattr(execute_module, "execute_job", wrapper)
        return calls

    def test_duplicates_scheduled_once(self, grid_instance, monkeypatch):
        calls = self._counting(monkeypatch)
        client = Client(cache_size=8)
        request = Job.from_instance(grid_instance, variants=VARIANTS)
        responses = client.submit_many([request, request, request])
        assert len(calls) == 1
        assert [response.cached for response in responses] == [False, True, True]
        assert responses[0].records == responses[1].records == responses[2].records
        assert client.computed == 1

    def test_cache_survives_batches(self, grid_instance, monkeypatch):
        calls = self._counting(monkeypatch)
        client = Client(cache_size=8)
        request = Job.from_instance(grid_instance, variants=VARIANTS)
        first = client.submit(request)
        second = client.submit(request)
        assert len(calls) == 1
        assert not first.cached and second.cached
        assert first.records == second.records

    def test_identical_fingerprints_identical_results(self, grid_instance):
        client = Client(cache_size=8)
        spec = InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)
        twin_request = Job.from_instance(
            make_instance(spec), variants=VARIANTS
        )
        request = Job.from_instance(grid_instance, variants=VARIANTS)
        assert request.fingerprint == twin_request.fingerprint
        first = client.submit(request)
        second = client.submit(twin_request)
        assert second.cached
        assert first.records == second.records

    def test_lru_bound_forces_recompute(self, grid_instance, other_instance, monkeypatch):
        calls = self._counting(monkeypatch)
        client = Client(cache_size=1)
        first = Job.from_instance(grid_instance, variants=("ASAP",))
        second = Job.from_instance(other_instance, variants=("ASAP",))
        client.submit(first)
        client.submit(second)   # evicts `first`
        assert len(client.cache) == 1
        response = client.submit(first)  # must recompute
        assert not response.cached
        assert len(calls) == 3
        assert client.cache.evictions == 2

    def test_mixed_batch_order_preserved(self, grid_instance, other_instance):
        client = Client(cache_size=8)
        a = Job.from_instance(grid_instance, variants=("ASAP",))
        b = Job.from_instance(other_instance, variants=("ASAP",))
        responses = client.submit_many([a, b, a, b])
        assert [response.fingerprint for response in responses] == [
            a.fingerprint, b.fingerprint, a.fingerprint, b.fingerprint
        ]
        assert [response.cached for response in responses] == [False, False, True, True]
        assert client.computed == 2

    def test_process_pool_matches_inline(self, grid_instance, other_instance):
        request_a = Job.from_instance(grid_instance, variants=VARIANTS)
        request_b = Job.from_instance(other_instance, variants=VARIANTS)
        inline = Client(cache_size=8)
        pooled = Client(jobs=2, cache_size=8)
        inline_responses = inline.submit_many([request_a, request_b])
        pooled_responses = pooled.submit_many([request_a, request_b])
        for seq, par in zip(inline_responses, pooled_responses):
            assert seq.fingerprint == par.fingerprint
            assert [r.carbon_cost for r in seq.records] == [
                r.carbon_cost for r in par.records
            ]
            assert [r.makespan for r in seq.records] == [
                r.makespan for r in par.records
            ]

    def test_response_to_dict(self, grid_instance):
        client = Client(cache_size=8)
        request = Job.from_instance(grid_instance, variants=("ASAP",))
        response = client.submit(request)
        data = response.to_dict()
        assert data["fingerprint"] == request.fingerprint
        assert data["cached"] is False
        assert data["records"][0]["variant"] == "ASAP"

    def test_stats(self, grid_instance):
        client = Client(cache_size=4)
        request = Job.from_instance(grid_instance, variants=("ASAP",))
        client.submit_many([request, request])
        stats = client.stats()
        assert stats["computed"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1
        assert stats["max_size"] == 4


class TestSolve:
    def test_returns_full_result(self, grid_instance):
        client = Client(cache_size=8)
        result = client.solve(grid_instance, "ASAP")
        assert result.variant == "ASAP"
        assert result.schedule.instance is grid_instance
        assert result.carbon_cost >= 0
        assert client.solved == 1

    def test_identical_plans_hit_the_cache(self, grid_instance):
        client = Client(cache_size=8)
        first = client.solve(grid_instance, "pressWR-LS")
        second = client.solve(grid_instance, "pressWR-LS")
        assert second is first
        assert client.solved == 1
        assert client.cache.hits == 1

    def test_variant_and_scheduler_are_part_of_the_key(self, grid_instance):
        from repro.core.scheduler import CaWoSched

        client = Client(cache_size=8)
        client.solve(grid_instance, "ASAP")
        client.solve(grid_instance, "slack")
        client.solve(grid_instance, "slack", scheduler=CaWoSched(window=5))
        assert client.solved == 3

    def test_solve_matches_direct_scheduler_run(self, grid_instance):
        from repro.core.scheduler import CaWoSched

        client = Client(cache_size=8)
        via_client = client.solve(grid_instance, "pressWR")
        direct = CaWoSched().run(grid_instance, "pressWR")
        assert via_client.carbon_cost == direct.carbon_cost
        assert via_client.makespan == direct.makespan
        assert via_client.schedule.start_times() == direct.schedule.start_times()

    def test_solve_counters_in_stats(self, grid_instance):
        client = Client(cache_size=8)
        client.solve(grid_instance, "ASAP")
        client.solve(grid_instance, "ASAP")
        stats = client.stats()
        assert stats["solved"] == 1
        assert stats["solve_hits"] == 1

    def test_solve_key_ignores_instance_labels(self, grid_instance):
        # The schedule depends only on the DAG and the profile, so two
        # instances differing only in name/metadata share a cache entry.
        from repro.schedule.instance import ProblemInstance

        relabelled = ProblemInstance(
            grid_instance.dag,
            grid_instance.profile,
            name="other-label",
            metadata={"plan_time": 123},
        )
        client = Client(cache_size=8)
        first = client.solve(grid_instance, "pressWR")
        second = client.solve(relabelled, "pressWR")
        assert second is first
        assert client.solved == 1
