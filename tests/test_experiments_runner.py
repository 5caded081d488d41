"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.api import Client, Job
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.runner import RunRecord, records_by_instance, run_grid


def submit_records(instance, variants):
    """The records of one instance, submitted as a job through a client."""
    return Client().submit(Job.from_instance(instance, variants=variants)).records


@pytest.fixture(scope="module")
def tiny_grid_records():
    specs = [
        InstanceSpec("atacseq", 20, "small", "S1", 1.5, seed=0),
        InstanceSpec("atacseq", 20, "small", "S3", 3.0, seed=0),
    ]
    return specs, run_grid(specs, variants=["ASAP", "slack-LS", "pressWR-LS"], master_seed=1)


class TestRunInstance:
    def test_one_record_per_variant(self):
        instance = make_instance(InstanceSpec("eager", 20, "small", "S2", 2.0, seed=0))
        records = submit_records(instance, ["ASAP", "press"])
        assert [record.variant for record in records] == ["ASAP", "press"]
        assert all(record.instance == instance.name for record in records)

    def test_metadata_denormalised(self):
        instance = make_instance(InstanceSpec("eager", 20, "small", "S2", 2.0, seed=0))
        record = submit_records(instance, ["ASAP"])[0]
        assert record.scenario == "S2"
        assert record.cluster == "small"
        assert record.deadline_factor == 2.0
        assert record.family == "eager"
        assert record.deadline == instance.deadline

    def test_to_dict_round_trip(self):
        instance = make_instance(InstanceSpec("eager", 20, "small", "S2", 2.0, seed=0))
        record = submit_records(instance, ["ASAP"])[0]
        as_dict = record.to_dict()
        assert as_dict["variant"] == "ASAP"
        assert as_dict["carbon_cost"] == record.carbon_cost


class TestRunGrid:
    def test_record_count(self, tiny_grid_records):
        specs, records = tiny_grid_records
        assert len(records) == len(specs) * 3

    def test_costs_non_negative(self, tiny_grid_records):
        _, records = tiny_grid_records
        assert all(record.carbon_cost >= 0 for record in records)

    def test_custom_scheduler_parameters(self):
        specs = [InstanceSpec("bacass", 15, "small", "S1", 2.0, seed=0)]
        records = run_grid(specs, variants=["pressR-LS"], scheduler=CaWoSched(window=2))
        assert len(records) == 1

    def test_records_by_instance(self, tiny_grid_records):
        _, records = tiny_grid_records
        grouped = records_by_instance(records)
        assert len(grouped) == 2
        for group in grouped.values():
            assert len(group) == 3
