"""Property-based tests (hypothesis) for the JSON wire format.

Every property routes an object through JSON *text* (not just dictionaries),
so tuple-keyed names, ordering and integer/float coercions are all exercised
exactly as they are on disk or on the network.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.intervals import PowerProfile
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.runner import RunRecord
from repro.io.wire import canonical_json, dumps, instance_from_dict, instance_to_dict, loads
from repro.schedule.schedule import Schedule
from repro.utils.names import decode_name, encode_name
from repro.workflow.dag import Workflow
from repro.workflow.generators import generate_workflow

FAMILIES = st.sampled_from(["atacseq", "methylseq", "eager", "bacass"])

_atomic_names = st.one_of(
    st.text(min_size=1, max_size=12),
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
)
NAMES = st.recursive(
    _atomic_names,
    lambda children: st.tuples(children, children).map(tuple)
    | st.tuples(children, children, children).map(tuple),
    max_leaves=6,
)

RECORDS = st.builds(
    RunRecord,
    instance=st.text(max_size=20),
    variant=st.sampled_from(["ASAP", "slack", "pressWR-LS", "combWR-LS"]),
    carbon_cost=st.integers(0, 10**9),
    runtime_seconds=st.floats(0, 10**3, allow_nan=False, allow_infinity=False),
    makespan=st.integers(0, 10**6),
    deadline=st.integers(0, 10**6),
    num_tasks=st.integers(1, 10**5),
    family=st.sampled_from(["atacseq", "bacass", ""]),
    cluster=st.sampled_from(["small", "large", ""]),
    scenario=st.sampled_from(["S1", "S2", "S3", "S4", ""]),
    deadline_factor=st.floats(0, 8, allow_nan=False, allow_infinity=False),
)


def _through_json(payload):
    """Round payload through JSON text, as the file/network boundary does."""
    return json.loads(json.dumps(payload))


class TestNameCodecProperties:
    @given(name=NAMES)
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_inverse_through_json(self, name):
        assert decode_name(_through_json(encode_name(name))) == name


class TestWorkflowProperties:
    @given(family=FAMILIES, num_tasks=st.integers(10, 80), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_workflow_round_trip_preserves_structure(self, family, num_tasks, seed):
        workflow = generate_workflow(family, num_tasks, rng=seed)
        clone = Workflow.from_dict(_through_json(workflow.to_dict()))
        assert clone.tasks() == workflow.tasks()
        assert clone.dependencies() == workflow.dependencies()
        assert clone.topological_order() == workflow.topological_order()
        assert clone.total_work() == workflow.total_work()
        assert clone.total_data() == workflow.total_data()


class TestProfileProperties:
    @given(
        lengths=st.lists(st.integers(1, 50), min_size=1, max_size=12),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_profile_round_trip(self, lengths, seed):
        budgets = [(seed + index * 7919) % 100 for index in range(len(lengths))]
        profile = PowerProfile(lengths, budgets)
        assert PowerProfile.from_dict(_through_json(profile.to_dict())) == profile


class TestInstanceProperties:
    @given(
        family=FAMILIES,
        num_tasks=st.integers(10, 25),
        scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=8, deadline=None)
    def test_instance_round_trip_cost_invariant(self, family, num_tasks, scenario, seed):
        spec = InstanceSpec(family, num_tasks, "small", scenario, 1.5, seed=seed)
        instance = make_instance(spec)
        clone = instance_from_dict(_through_json(instance_to_dict(instance)))
        assert canonical_json(instance_to_dict(clone)) == canonical_json(
            instance_to_dict(instance)
        )
        scheduler = CaWoSched()
        for variant in ("ASAP", "pressWR-LS"):
            original = scheduler.run(instance, variant)
            roundtrip = scheduler.run(clone, variant)
            assert roundtrip.carbon_cost == original.carbon_cost
            assert roundtrip.makespan == original.makespan
            # The schedule itself survives a round trip against the clone.
            rebuilt = Schedule.from_dict(_through_json(original.schedule.to_dict()), clone)
            assert rebuilt.start_times() == original.schedule.start_times()


class TestRecordProperties:
    @given(records=st.lists(RECORDS, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_records_json_round_trip(self, records):
        assert loads(dumps("records", records), "records") == records
