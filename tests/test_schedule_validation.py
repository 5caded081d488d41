"""Tests for schedule feasibility checking."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.scenarios import generate_power_profile
from repro.core.greedy import greedy_schedule
from repro.io.wire import load_instance
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import cluster_from_table1
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost, carbon_cost_per_time_unit
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule, is_feasible
from repro.utils.errors import InfeasibleScheduleError
from repro.workflow.generators import generate_workflow

from schedule_helpers import with_start


class TestFeasibleSchedules:
    def test_asap_is_feasible(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        assert is_feasible(schedule)
        check_schedule(schedule)  # must not raise


class TestInfeasibleSchedules:
    def test_precedence_violation_detected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        # Pick an edge and move the target before the source's finish.
        source, target = dag.edges()[0]
        broken = with_start(schedule, target, schedule.start(source))
        assert not is_feasible(broken)
        with pytest.raises(InfeasibleScheduleError, match="precedence violated"):
            check_schedule(broken)

    def test_deadline_violation_detected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        # Find a sink node and push it past the deadline.
        sink = next(n for n in dag.nodes() if not dag.successors(n))
        broken = with_start(schedule, sink, tiny_multi_instance.deadline)
        assert not is_feasible(broken)
        with pytest.raises(InfeasibleScheduleError, match="after the deadline"):
            check_schedule(broken)

    def test_overlap_on_processor_detected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        # Two consecutive tasks on the same processor forced to the same start:
        # their chain edge reports the overlap.
        processor = next(
            p for p in dag.processors_with_tasks() if len(dag.tasks_on(p)) >= 2
        )
        first, second = dag.tasks_on(processor)[:2]
        broken = with_start(schedule, second, schedule.start(first))
        assert not is_feasible(broken)
        with pytest.raises(InfeasibleScheduleError, match="precedence violated"):
            check_schedule(broken)

    def test_violation_limit(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        # Break every edge by resetting all starts to zero: the error names
        # the first violated edge only.
        broken = Schedule(tiny_multi_instance, {node: 0 for node in schedule})
        assert not is_feasible(broken)
        with pytest.raises(InfeasibleScheduleError) as excinfo:
            check_schedule(broken)
        assert str(excinfo.value).count("precedence violated") == 1


def overlap_or_order_violations(schedule):
    """The per-processor checks ``check_schedule`` leaves to the chain edges.

    For every (compute or link) processor, tasks sorted by start time must
    not overlap and must run in the mapping's fixed order.
    """
    dag = schedule.instance.dag
    starts = schedule.start_times()
    violations = []
    for processor in dag.processors_with_tasks():
        tasks = dag.tasks_on(processor)
        ordered = sorted(tasks, key=starts.__getitem__)
        for earlier, later in zip(ordered, ordered[1:]):
            if starts[later] < starts[earlier] + dag.duration(earlier):
                violations.append(("overlap", processor, earlier, later))
        positions = {task: index for index, task in enumerate(tasks)}
        for earlier, later in zip(ordered, ordered[1:]):
            if positions[earlier] > positions[later]:
                violations.append(("order", processor, earlier, later))
    return violations


@lru_cache(maxsize=None)
def generated_schedules(family, seed):
    """An instance on a six-processor cluster, with its ASAP and greedy schedules."""
    workflow = generate_workflow(family, 12, rng=seed)
    mapping = heft_mapping(workflow, cluster_from_table1(1, name="validation")).mapping
    dag = build_enhanced_dag(mapping, rng=seed)
    deadline = int(1.5 * dag.critical_path_duration())
    profile = generate_power_profile(
        "S2", deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=4, rng=seed,
    )
    instance = ProblemInstance(dag, profile)
    return asap_schedule(instance), greedy_schedule(instance, base="pressure", refined=True)


class TestPerturbedSchedules:
    @given(
        family=st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
        seed=st.integers(0, 7),
        greedy=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_chain_edges_catch_every_overlap_and_order_violation(
        self, family, seed, greedy, data
    ):
        asap, greedy_result = generated_schedules(family, seed)
        schedule = greedy_result if greedy else asap
        assert is_feasible(schedule)
        assert not overlap_or_order_violations(schedule)
        dag = schedule.instance.dag
        nodes = dag.nodes()
        deadline = schedule.instance.deadline
        for _ in range(data.draw(st.integers(1, 4), label="moves")):
            node = data.draw(st.sampled_from(nodes), label="node")
            if data.draw(st.booleans(), label="onto another task"):
                other = data.draw(st.sampled_from(nodes), label="other")
                start = schedule.start(other)
            else:
                # Shifts may run past the deadline.
                shift = data.draw(st.integers(-deadline, deadline), label="shift")
                start = max(0, schedule.start(node) + shift)
            schedule = with_start(schedule, node, start)
        if overlap_or_order_violations(schedule):
            assert not is_feasible(schedule)
            with pytest.raises(InfeasibleScheduleError):
                check_schedule(schedule)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)


def _first_violation(schedule):
    """The message of the first violation, from a per-node and per-edge scan.

    The reference for :func:`check_schedule`: deadline window
    in node order first, then the edges in ``dag.edges()`` order.
    """
    dag = schedule.instance.dag
    deadline = schedule.instance.deadline
    starts = schedule.start_times()
    finish = {node: start + dag.duration(node) for node, start in starts.items()}
    for node in dag.nodes():
        if starts[node] < 0:
            return f"task {node!r} starts at negative time {starts[node]}"
        if finish[node] > deadline:
            return f"task {node!r} finishes at {finish[node]}, after the deadline {deadline}"
    for source, target in dag.edges():
        if starts[target] < finish[source]:
            return (
                f"precedence violated: {target!r} starts at {starts[target]} "
                f"before {source!r} finishes at {finish[source]}"
            )
    return None


def _message(schedule):
    try:
        check_schedule(schedule)
    except InfeasibleScheduleError as exc:
        return str(exc)
    return None


class TestFirstViolation:
    @given(
        family=st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
        seed=st.integers(0, 7),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_message_matches_the_per_node_and_per_edge_scan(self, family, seed, data):
        schedule = generated_schedules(family, seed)[1]
        nodes = schedule.instance.dag.nodes()
        deadline = schedule.instance.deadline
        starts = schedule.start_times()
        for _ in range(data.draw(st.integers(0, 4), label="moves")):
            node = data.draw(st.sampled_from(nodes), label="node")
            starts[node] = data.draw(st.integers(-3, deadline + 3), label="start")
        # _trusted keeps negative starts, which the constructor rejects.
        broken = Schedule._trusted(schedule.instance, starts, algorithm="perturbed")
        assert _message(broken) == _first_violation(broken)

    @pytest.mark.parametrize("start", [2**63 - 2, 2**63, 2**70])
    def test_start_beyond_int64_is_a_deadline_violation(self, tiny_multi_instance, start):
        schedule = asap_schedule(tiny_multi_instance)
        node = tiny_multi_instance.dag.nodes()[-1]
        broken = with_start(schedule, node, start)
        with pytest.raises(InfeasibleScheduleError, match="after the deadline") as excinfo:
            check_schedule(broken)
        assert str(excinfo.value) == _first_violation(broken)
        assert not is_feasible(broken)


IDENTITY = Path(__file__).parent / "data" / "identity"


class TestIdentityDags:
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in IDENTITY.glob("*.json") if p.name != "expected.json")
    )
    def test_moved_tasks_match_the_scan(self, name):
        # Communication tasks, links and several clusters: each task moved
        # to time 0, just before its ASAP finish, or to the deadline, alone
        # and with the last task also moved to the deadline.
        instance = load_instance(IDENTITY / name)
        schedule = asap_schedule(instance)
        deadline = instance.deadline
        last = instance.dag.nodes()[-1]
        assert _message(schedule) is None
        messages = set()
        for node in instance.dag.nodes():
            finish = schedule.start(node) + instance.dag.duration(node)
            for start in {0, max(finish - 1, 0), deadline}:
                for broken in (
                    with_start(schedule, node, start),
                    with_start(with_start(schedule, node, start), last, deadline),
                ):
                    messages.add(_message(broken))
                    assert _message(broken) == _first_violation(broken), (node, start)
        assert any(m and "precedence" in m for m in messages)
        assert any(m and "deadline" in m for m in messages)
