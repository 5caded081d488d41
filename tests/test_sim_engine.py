"""Tests for the discrete-event simulation engine (:mod:`repro.sim.engine`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.io.wire import canonical_json, dumps, loads
from repro.sim import SimReport, SimulationConfig, simulate
from repro.utils.errors import SimulationError


def small_config(**overrides) -> SimulationConfig:
    """A fast baseline configuration; overrides tweak one aspect per test."""
    defaults = dict(
        horizon=720,
        slots=4,
        seed=3,
        rate=0.01,
        tasks=(10,),
        variant="pressWR",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        config = small_config(policy="carbon", forecast="persistence")
        first = canonical_json(simulate(config).to_dict())
        second = canonical_json(simulate(config).to_dict())
        assert first == second

    def test_different_seeds_differ(self):
        a = simulate(small_config(seed=1))
        b = simulate(small_config(seed=2))
        assert a.to_dict() != b.to_dict()

    def test_event_sequence_is_strictly_increasing(self):
        report = simulate(small_config(policy="reschedule"))
        seqs = [event.seq for event in report.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        times = [event.time for event in report.events]
        assert times == sorted(times)


class TestOracleEquality:
    def test_oracle_no_contention_matches_offline_per_workflow(self):
        # Enough slots that every workflow commits at arrival: the online
        # plan is the offline clairvoyant schedule, so costs match exactly.
        for policy in ("fifo", "edf", "reschedule"):
            report = simulate(
                small_config(policy=policy, forecast="oracle", slots=64)
            )
            assert report.jobs, "expected arrivals in this configuration"
            for record in report.jobs:
                assert record.start == record.arrival
                assert record.online_cost == record.oracle_cost
                assert record.predicted_cost == record.online_cost
            assert report.metrics["carbon_gap"] == 1.0

    def test_oracle_plans_are_served_from_cache(self):
        report = simulate(small_config(policy="fifo", forecast="oracle", slots=64))
        # One computed schedule per workflow (the oracle baseline); the
        # commit-time plan is the identical request and hits the cache.
        assert report.service["solved"] == len(report.jobs)
        assert report.service["solve_hits"] >= len(report.jobs)
        assert list(report.service) == [
            "computed", "solved", "solve_hits", "size",
            "max_size", "hits", "misses", "evictions",
        ]


class TestEngineBehaviour:
    def test_zero_arrivals_empty_report(self):
        report = simulate(small_config(rate=0.0))
        assert report.jobs == ()
        assert report.events == ()
        assert report.metrics == {}

    def test_single_slot_queues_workflows(self):
        burst = small_config(
            arrivals="burst", burst_period=720, burst_size=4, slots=1
        )
        report = simulate(burst)
        assert len(report.jobs) == 4
        delays = sorted(record.queueing_delay for record in report.jobs)
        assert delays[0] == 0
        assert delays[-1] > 0
        assert report.metrics["mean_queueing_delay"] > 0

    def test_trace_arrivals_follow_given_times(self):
        config = small_config(
            arrivals="trace", arrival_times=(5, 40, 40), slots=8
        )
        report = simulate(config)
        assert sorted(record.arrival for record in report.jobs) == [5, 40, 40]

    def test_deadline_misses_recorded_under_starvation(self):
        # One slot and a big simultaneous burst: later workflows must wait
        # past their latest feasible start and miss their deadlines.
        config = small_config(
            arrivals="burst",
            burst_period=2000,
            burst_size=12,
            slots=1,
            deadline_factor=1.0,
        )
        report = simulate(config)
        assert report.metrics["deadline_misses"] > 0
        missed = [record for record in report.jobs if record.missed]
        for record in missed:
            assert record.completion > record.deadline

    def test_carbon_policy_defers_into_greener_time(self):
        # Arrivals at midnight (dirty on the solar trace), naive persistence
        # forecast; the trace is compressed (5-unit samples, 120-unit days)
        # so the morning lies within the deadline slack.  The threshold
        # policy waits for the morning and beats committing into the night.
        def run(policy):
            return simulate(
                small_config(
                    arrivals="trace",
                    arrival_times=(0, 10),
                    policy=policy,
                    threshold=0.6,
                    forecast="persistence",
                    deadline_factor=3.0,
                    sample_duration=5,
                    slots=4,
                )
            )

        report = run("carbon")
        kinds = [event.kind for event in report.events]
        assert "defer" in kinds
        assert all(record.queueing_delay > 0 for record in report.jobs)
        fifo = run("fifo")
        assert report.metrics["online_carbon"] < fifo.metrics["online_carbon"]

    def test_carbon_policy_never_defers_past_latest_start(self):
        config = small_config(
            arrivals="trace",
            arrival_times=(0,),
            policy="carbon",
            threshold=1.0,  # unreachable before the latest start (noon is far)
            deadline_factor=1.5,
            slots=1,
        )
        report = simulate(config)
        record = report.jobs[0]
        # The greenness threshold is never reached before the slack runs
        # out, so the policy defers — but commits in time anyway.
        assert record.queueing_delay > 0
        assert not record.missed

    def test_reschedule_policy_emits_plan_and_reschedule_events(self):
        config = small_config(
            arrivals="burst",
            burst_period=2000,
            burst_size=3,
            slots=1,
            policy="reschedule",
            reschedule_period=50,
            forecast="persistence",
        )
        report = simulate(config)
        kinds = {event.kind for event in report.events}
        assert "plan" in kinds
        assert "reschedule" in kinds

    def test_utilization_in_unit_range(self):
        report = simulate(small_config())
        assert 0.0 < report.metrics["utilization"] <= 1.0


class TestReportSerialisation:
    def test_wire_round_trip_exact(self):
        report = simulate(small_config(policy="edf", forecast="moving-average"))
        text = dumps("sim-report", report)
        rebuilt = loads(text)
        assert isinstance(rebuilt, SimReport)
        assert rebuilt.to_dict() == report.to_dict()

    def test_config_echoed_in_report(self):
        config = small_config(policy="edf")
        report = simulate(config)
        assert report.config == config.to_dict()
        assert list(report.config) == [f.name for f in dataclasses.fields(SimulationConfig)]


class TestConfigValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(SimulationError):
            SimulationConfig(horizon=0)

    def test_rejects_bad_slots(self):
        with pytest.raises(SimulationError):
            SimulationConfig(slots=0)

    def test_rejects_unknown_names(self):
        with pytest.raises(SimulationError):
            SimulationConfig(arrivals="uniform")
        with pytest.raises(SimulationError):
            SimulationConfig(policy="sjf")
        with pytest.raises(SimulationError):
            SimulationConfig(forecast="arima")
        with pytest.raises(SimulationError):
            SimulationConfig(trace="gas")
        with pytest.raises(Exception):
            SimulationConfig(variant="NOPE")

    def test_rejects_bad_workload(self):
        with pytest.raises(SimulationError):
            SimulationConfig(families=())
        with pytest.raises(SimulationError):
            SimulationConfig(deadline_factor=0.5)

    def test_rejects_bad_parameters_uniformly(self):
        # Every out-of-range parameter surfaces as SimulationError (which
        # the CLI turns into a parser error), never a bare ValueError.
        for bad in (
            dict(rate=-1.0),
            dict(arrivals="burst", burst_period=0),
            dict(arrivals="burst", burst_size=0),
            dict(arrivals="trace"),  # trace without explicit times
            dict(policy="carbon", threshold=2.0),
            dict(policy="reschedule", reschedule_period=0),
            dict(ma_window=0),
            dict(sample_duration=0),
            dict(trace_noise=2.0),
            dict(green_cap=1.5),
            dict(cache_size=0),
        ):
            with pytest.raises(SimulationError):
                SimulationConfig(**bad)

    def test_config_dict_round_trip(self):
        # to_dict() holds every field, tuples as lists.
        config = small_config(policy="carbon", arrival_times=(1, 2, 3))
        data = config.to_dict()
        assert list(data) == [f.name for f in dataclasses.fields(SimulationConfig)]
        for name, value in data.items():
            original = getattr(config, name)
            assert value == (list(original) if isinstance(original, tuple) else original)

    @pytest.mark.parametrize("bad", [dict(block_size=0), dict(window=-1)])
    def test_rejects_bad_scheduler_parameters(self, bad):
        # Checked when the configuration is built, not at the first plan.
        with pytest.raises(SimulationError):
            SimulationConfig(**bad)
