"""Tests for the versioned JSON wire format (:mod:`repro.io.wire`)."""

from __future__ import annotations

import json

import pytest

from repro.api import Client, Job
from repro.carbon.intervals import Interval, PowerProfile
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.runner import RunRecord
from repro.io.wire import (
    WIRE_FORMAT,
    WIRE_VERSION,
    canonical_json,
    dumps,
    envelope,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_records,
    loads,
    open_envelope,
    save_instance,
    save_records,
)
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster, ExtendedPlatform
from repro.platform_.processor import ProcessorSpec
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidProfileError, InvalidWorkflowError, WireFormatError
from repro.utils.names import decode_name, encode_name
from repro.workflow.dag import Workflow
from repro.workflow.generators import generate_workflow
from repro.workflow.task import CommTask, Task


def _canonical(instance) -> str:
    """The canonical payload text the job fingerprint hashes."""
    return canonical_json(instance_to_dict(instance))


@pytest.fixture
def grid_instance():
    """A small but non-trivial generated instance (has communications)."""
    spec = InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)
    return make_instance(spec)


class TestNameCodec:
    @pytest.mark.parametrize(
        "name",
        [
            "task-a",
            7,
            3.5,
            True,
            None,
            ("comm", "a", "b"),
            ("link", ("p", 1), ("p", 2)),
        ],
    )
    def test_round_trip(self, name):
        assert decode_name(encode_name(name)) == name

    def test_round_trip_preserves_type(self):
        assert decode_name(encode_name(True)) is True
        assert isinstance(decode_name(encode_name(("a", 1))), tuple)

    def test_unsupported_name_rejected(self):
        with pytest.raises(TypeError):
            encode_name(object())

    def test_garbage_rejected_as_wire_error(self):
        with pytest.raises(WireFormatError):
            decode_name({"unexpected": 1})
        with pytest.raises(WireFormatError):
            decode_name([1, 2])


class TestLeafRoundTrips:
    def test_task(self):
        task = Task("qc-1", work=5, category="qc")
        assert Task.from_dict(task.to_dict()) == task

    def test_comm_task(self):
        comm = CommTask("a", "b", volume=3)
        assert CommTask.from_dict(comm.to_dict()) == comm

    def test_processor_spec(self):
        spec = ProcessorSpec("p0", speed=2.5, p_idle=1, p_work=4, proc_type="PT2")
        assert ProcessorSpec.from_dict(spec.to_dict()) == spec

    def test_link_processor_spec(self):
        spec = ProcessorSpec(
            ("link", "p0", "p1"), speed=1.0, p_idle=1, p_work=2, kind="link",
            proc_type="LINK",
        )
        assert ProcessorSpec.from_dict(spec.to_dict()) == spec

    def test_cluster(self, hetero_cluster):
        clone = Cluster.from_dict(hetero_cluster.to_dict())
        assert clone.name == hetero_cluster.name
        assert clone.processors() == hetero_cluster.processors()

    def test_interval(self):
        interval = Interval(3, 9, 4)
        assert Interval.from_dict(interval.to_dict()) == interval

    def test_power_profile(self):
        profile = PowerProfile([5, 3, 2], [4, 0, 9])
        assert PowerProfile.from_dict(profile.to_dict()) == profile

    def test_workflow(self, diamond_workflow_fixed):
        clone = Workflow.from_dict(diamond_workflow_fixed.to_dict())
        assert clone.name == diamond_workflow_fixed.name
        assert clone.tasks() == diamond_workflow_fixed.tasks()
        assert clone.dependencies() == diamond_workflow_fixed.dependencies()
        for task in clone.tasks():
            assert clone.work(task) == diamond_workflow_fixed.work(task)
        for source, target in clone.dependencies():
            assert clone.data(source, target) == diamond_workflow_fixed.data(source, target)

    def test_workflow_preserves_topological_order(self):
        workflow = generate_workflow("atacseq", 40, rng=3)
        clone = Workflow.from_dict(workflow.to_dict())
        assert clone.topological_order() == workflow.topological_order()


class TestMappingRoundTrip:
    def test_mapping(self, grid_instance):
        mapping = grid_instance.dag.mapping
        clone = Mapping.from_dict(mapping.to_dict())
        assert clone.assignment() == mapping.assignment()
        assert clone.processor_order() == mapping.processor_order()
        assert clone.communication_order() == mapping.communication_order()

    def test_extended_platform(self, grid_instance):
        platform = grid_instance.dag.platform
        clone = ExtendedPlatform.from_dict(platform.to_dict())
        assert clone.processors() == platform.processors()
        assert clone.total_idle_power() == platform.total_idle_power()
        assert clone.total_work_power() == platform.total_work_power()


class TestInstanceRoundTrip:
    def test_structure_preserved(self, grid_instance):
        clone = instance_from_dict(instance_to_dict(grid_instance))
        assert clone.name == grid_instance.name
        assert clone.deadline == grid_instance.deadline
        assert clone.metadata == grid_instance.metadata
        assert clone.dag.nodes() == grid_instance.dag.nodes()
        for node in grid_instance.dag.nodes():
            assert clone.dag.duration(node) == grid_instance.dag.duration(node)
            assert clone.dag.processor(node) == grid_instance.dag.processor(node)
        assert sorted(map(repr, clone.dag.edges())) == sorted(
            map(repr, grid_instance.dag.edges())
        )
        assert clone.profile == grid_instance.profile

    @pytest.mark.parametrize("variant", ["ASAP", "slack", "pressWR-LS"])
    def test_carbon_cost_invariant(self, grid_instance, variant):
        clone = instance_from_dict(instance_to_dict(grid_instance))
        scheduler = CaWoSched()
        original = scheduler.run(grid_instance, variant)
        roundtrip = scheduler.run(clone, variant)
        assert roundtrip.carbon_cost == original.carbon_cost
        assert roundtrip.makespan == original.makespan
        assert roundtrip.schedule.start_times() == original.schedule.start_times()

    def test_carbon_cost_invariant_single_processor(self, tiny_single_instance):
        clone = instance_from_dict(instance_to_dict(tiny_single_instance))
        scheduler = CaWoSched()
        for variant in ("ASAP", "slackWR-LS"):
            assert (
                scheduler.run(clone, variant).carbon_cost
                == scheduler.run(tiny_single_instance, variant).carbon_cost
            )

    def test_fingerprint_stable_across_round_trips(self, grid_instance):
        clone = instance_from_dict(instance_to_dict(grid_instance))
        assert _canonical(clone) == _canonical(grid_instance)

    def test_fingerprint_distinguishes_content(self, grid_instance, tiny_multi_instance):
        assert _canonical(grid_instance) != _canonical(tiny_multi_instance)

    def test_missing_field_rejected(self):
        with pytest.raises(WireFormatError, match="missing field"):
            instance_from_dict({"bogus": 1})

    def test_malformed_value_rejected_as_wire_error(self, grid_instance):
        payload = instance_to_dict(grid_instance)
        payload["profile"] = {"lengths": [10], "budgets": ["abc"]}
        with pytest.raises(WireFormatError, match="malformed instance payload"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("workflow", [None, "x", -1, 1.5, True, []])
    def test_non_object_workflow_rejected_as_wire_error(self, grid_instance, workflow):
        payload = instance_to_dict(grid_instance)
        payload["mapping"]["workflow"] = workflow
        with pytest.raises(WireFormatError, match="malformed instance payload"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("metadata", [None, "x", -1, 1.5, True])
    def test_non_object_metadata_rejected_as_wire_error(self, grid_instance, metadata):
        payload = instance_to_dict(grid_instance)
        payload["metadata"] = metadata
        with pytest.raises(WireFormatError, match="malformed instance payload"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("work", [2.7, 1.0, True, "3"])
    def test_non_integer_work_rejected(self, grid_instance, work):
        # Loading must not truncate a weight into range: 2.7 is not work 2.
        payload = instance_to_dict(grid_instance)
        payload["mapping"]["workflow"]["tasks"][0]["work"] = work
        with pytest.raises(InvalidWorkflowError, match="work must be an integer"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("data", [1.9, 0.0, True, "1"])
    def test_non_integer_data_rejected(self, grid_instance, data):
        payload = instance_to_dict(grid_instance)
        payload["mapping"]["workflow"]["dependencies"][0][2] = data
        with pytest.raises(InvalidWorkflowError, match="data must be an integer"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("link", [[], ["p0"], "p0", None])
    def test_malformed_communication_link_rejected_as_wire_error(self, link):
        # A link key must name its source and target processor.
        spec = InstanceSpec("bacass", 30, "small", "S1", 1.5, seed=1)
        payload = instance_to_dict(make_instance(spec))
        assert payload["mapping"]["communication_order"]
        payload["mapping"]["communication_order"][0][0] = link
        with pytest.raises(WireFormatError, match="must name two processors"):
            instance_from_dict(payload)

    def test_nan_link_speed_rejected_as_wire_error(self):
        spec = InstanceSpec("bacass", 30, "small", "S1", 1.5, seed=1)
        payload = instance_to_dict(make_instance(spec))
        payload["links"][0]["speed"] = float("nan")
        with pytest.raises(WireFormatError, match="speed must be a number"):
            instance_from_dict(payload)

    @pytest.mark.parametrize(
        "field",
        ["processor p_idle", "processor p_work", "link p_idle", "link p_work",
         "profile budgets", "profile lengths"],
    )
    def test_value_beyond_int64_rejected_on_load(self, field):
        # The schedule evaluators hold powers, budgets and times in int64
        # rows; a larger value is a malformed input, not a crash when the
        # first schedule is costed.
        spec = InstanceSpec("bacass", 30, "small", "S1", 1.5, seed=1)
        payload = instance_to_dict(make_instance(spec))
        owner, name = field.split()
        error = InvalidProfileError if owner == "profile" else WireFormatError
        entry = {
            "processor": payload["mapping"]["cluster"]["processors"][0],
            "link": payload["links"][0],
            "profile": payload["profile"],
        }[owner]
        if owner == "profile":
            entry[name][0] = 2**70
        else:
            entry[name] = 2**70
        with pytest.raises(error, match="must be at most"):
            instance_from_dict(payload)

    def test_mismatched_platform_rejected(self, grid_instance):
        from repro.mapping.enhanced_dag import build_enhanced_dag
        from repro.platform_.cluster import ExtendedPlatform
        from repro.utils.errors import InvalidMappingError

        mapping = grid_instance.dag.mapping
        # Same processor names, different speeds/powers: must be rejected.
        foreign_cluster = Cluster(
            [
                ProcessorSpec(spec.name, speed=spec.speed * 2, p_idle=spec.p_idle,
                              p_work=spec.p_work, proc_type=spec.proc_type)
                for spec in mapping.cluster.processors()
            ],
            name=mapping.cluster.name,
        )
        foreign_platform = ExtendedPlatform(
            foreign_cluster, grid_instance.dag.platform.links()
        )
        with pytest.raises(InvalidMappingError, match="does not match"):
            build_enhanced_dag(mapping, platform=foreign_platform)


class TestScheduleAndResultRoundTrips:
    def test_schedule_round_trip(self, grid_instance):
        schedule = CaWoSched().run(grid_instance, "pressWR-LS").schedule
        clone = Schedule.from_dict(schedule.to_dict(), grid_instance)
        assert clone.start_times() == schedule.start_times()
        assert clone.algorithm == schedule.algorithm
        assert clone.makespan == schedule.makespan


class TestRecordsRoundTrip:
    def test_records(self, grid_instance):
        records = list(
            Client().submit(Job.from_instance(grid_instance, variants=["ASAP", "slack"])).records
        )
        clone = loads(dumps("records", records), "records")
        assert clone == records


_RECORD = {
    "instance": "x", "variant": "ASAP", "carbon_cost": 5, "runtime_seconds": 0.25,
    "makespan": 7, "deadline": 10, "num_tasks": 4,
}


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"variant": "x"}, "record 0 is missing field 'instance'"),
            (dict(_RECORD, carbon_cost=[5]), "field 'carbon_cost' must be an integer"),
            (dict(_RECORD, family={"name": "x"}), "field 'family' must be a string"),
            (dict(_RECORD, makespan=float("nan")), "field 'makespan' must be an integer"),
            (
                dict(_RECORD, runtime_seconds=float("nan")),
                "field 'runtime_seconds' must be a finite number",
            ),
            (dict(_RECORD, deadline="soon"), "field 'deadline' must be an integer"),
            # Integers are read strictly, not truncated or parsed from text.
            (dict(_RECORD, carbon_cost=2.7), "field 'carbon_cost' must be an integer, got 2.7"),
            (dict(_RECORD, carbon_cost=True), "field 'carbon_cost' must be an integer, got True"),
            (dict(_RECORD, carbon_cost="9"), "field 'carbon_cost' must be an integer, got '9'"),
            (dict(_RECORD, runtime_seconds="0.25"), "field 'runtime_seconds' must be a finite"),
            (dict(_RECORD, deadline_factor=False), "field 'deadline_factor' must be a finite"),
            (dict(_RECORD, instance=5), "field 'instance' must be a string, got 5"),
            (3, "record 0 must be an object"),
        ],
    )
    def test_malformed_record_rejected_as_wire_error(self, entry, message):
        text = json.dumps(envelope("records", [entry]))
        with pytest.raises(WireFormatError, match=message):
            loads(text, "records")

    def test_non_list_payload_rejected(self):
        with pytest.raises(WireFormatError, match="must be a list"):
            loads(json.dumps(envelope("records", {"instance": "x"})), "records")

    def test_load_records_rejects_missing_field(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(envelope("records", [{"variant": "x"}])))
        with pytest.raises(WireFormatError, match="missing field 'instance'"):
            load_records(path)


class TestEnvelope:
    def test_round_trip(self):
        payload = open_envelope(envelope("records", [1, 2]), "records")
        assert payload == [1, 2]

    def test_wrong_format_rejected(self):
        with pytest.raises(WireFormatError):
            open_envelope({"format": "other", "version": 1, "payload": {}})

    def test_wrong_version_rejected(self):
        with pytest.raises(WireFormatError):
            open_envelope(
                {"format": WIRE_FORMAT, "version": WIRE_VERSION + 1, "payload": {}}
            )

    def test_wrong_kind_rejected(self):
        with pytest.raises(WireFormatError):
            open_envelope(envelope("records", []), "instance")

    def test_missing_payload_rejected(self):
        with pytest.raises(WireFormatError):
            open_envelope({"format": WIRE_FORMAT, "version": WIRE_VERSION})

    def test_loads_rejects_garbage(self):
        with pytest.raises(WireFormatError):
            loads("not json at all {")

    def test_dumps_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError):
            dumps("mystery", object())

    @pytest.mark.parametrize("kind", ["job", "job-result", "error"])
    def test_only_the_cli_kinds_are_known(self, kind):
        message = "known: instance, records, sim-report"
        with pytest.raises(WireFormatError, match=message):
            dumps(kind, object())
        with pytest.raises(WireFormatError, match=message):
            loads(json.dumps(envelope(kind, {})))


class TestFileRoundTrips:
    def test_instance_file(self, grid_instance, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(grid_instance, path)
        clone = load_instance(path)
        assert _canonical(clone) == _canonical(grid_instance)
        # The file is a valid envelope readable by any JSON consumer.
        document = json.loads(path.read_text(encoding="utf8"))
        assert document["format"] == WIRE_FORMAT
        assert document["kind"] == "instance"

    def test_records_file(self, grid_instance, tmp_path):
        records = list(
            Client().submit(Job.from_instance(grid_instance, variants=["ASAP", "slack"])).records
        )
        path = tmp_path / "records.json"
        save_records(records, path)
        assert load_records(path) == records

    def test_dumps_loads_text(self, grid_instance):
        clone = loads(dumps("instance", grid_instance))
        assert _canonical(clone) == _canonical(grid_instance)
