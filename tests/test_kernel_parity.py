"""Parity suite for the vectorized scheduling kernels.

The library has one implementation of each hot path; this module keeps the
original scalar algorithms as test-only references and pins the contract
that the library is *byte-identical* to them:

* ``PowerTimeline.gain_profile`` equals a loop of scalar ``move_gain`` calls,
  and so do the per-task gains of the batched ``PowerTimeline.gain_profiles``,
* ``local_search`` returns the same start times as the per-candidate
  ``move_gain`` hill climber (:func:`_scalar_local_search`), and a
  lock-step group of searches returns what each search returns alone,
* every incremental ``EstLstTracker.fix`` leaves the same EST/LST maps as
  the full two-sweep recompute,
* the lag-difference form of ``block_alignment_points`` equals the original
  per-(block, alignment, task) enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, Hashable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.scenarios import generate_power_profile
from repro.core.estlst import EstLstTracker
from repro.core.greedy import greedy_schedule
from repro.core.local_search import _BatchedSearch, local_search
from repro.core.subdivision import block_alignment_points
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.cluster import Cluster, ExtendedPlatform
from repro.platform_.presets import cluster_from_table1
from repro.schedule.asap import asap_makespan
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import PowerTimeline
from repro.utils.rng import ensure_rng
from repro.workflow.generators import generate_workflow
from schedule_helpers import with_zero_durations


def build_random_instance(family: str, num_tasks: int, scenario: str,
                          deadline_factor: float, seed: int) -> ProblemInstance:
    workflow = generate_workflow(family, num_tasks, rng=seed)
    cluster = cluster_from_table1(1, name="parity")
    mapping = heft_mapping(workflow, cluster).mapping
    dag = build_enhanced_dag(mapping, rng=seed)
    deadline = max(1, int(deadline_factor * asap_makespan(dag)))
    profile = generate_power_profile(
        scenario, deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=8, rng=seed,
    )
    return ProblemInstance(dag, profile)


INSTANCE_STRATEGY = st.builds(
    build_random_instance,
    family=st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
    num_tasks=st.integers(6, 25),
    scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
    deadline_factor=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(0, 10**6),
)


class TestGainProfileParity:
    @given(instance=INSTANCE_STRATEGY, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gain_profile_equals_scalar_move_gain_loop(self, instance, data):
        schedule = greedy_schedule(instance, base="slack")
        timeline = PowerTimeline(instance, schedule)
        dag = instance.dag
        node = data.draw(st.sampled_from(dag.nodes()), label="node")
        duration = dag.duration(node)
        start = timeline.start_of(node)
        limit = instance.deadline - duration
        lo = data.draw(st.integers(0, min(start, limit)), label="lo")
        hi = data.draw(st.integers(lo, limit), label="hi")

        profile = timeline.gain_profile(node, lo, hi)
        expected = [
            timeline.move_gain(node, candidate) if candidate != start else 0
            for candidate in range(lo, hi + 1)
        ]
        assert profile.dtype == np.int64
        assert profile.tolist() == expected
        # The timeline itself is untouched by the evaluation.
        assert timeline.start_of(node) == start

    @given(instance=INSTANCE_STRATEGY)
    @settings(max_examples=10, deadline=None)
    def test_empty_window_yields_empty_profile(self, instance):
        schedule = greedy_schedule(instance, base="pressure")
        timeline = PowerTimeline(instance, schedule)
        node = instance.dag.nodes()[0]
        start = timeline.start_of(node)
        assert timeline.gain_profile(node, start, start - 1).size == 0


@st.composite
def batched_windows(draw):
    """A loaded timeline, a task subset and a legal window for each task.

    The PT5 processor and some links draw no working power and some nodes
    take no time, so zero-power and zero-duration tasks occur; windows may
    be empty, start at 0 or end at the horizon.
    """
    family = draw(st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]))
    seed = draw(st.integers(0, 10**6))
    workflow = generate_workflow(family, draw(st.integers(6, 20)), rng=seed)
    cluster = Cluster(
        [
            replace(spec, p_work=0) if spec.proc_type == "PT5" else spec
            for spec in cluster_from_table1(1, name="parity").processors()
        ],
        name="parity",
    )
    mapping = heft_mapping(workflow, cluster).mapping
    # Link powers drawn from {0, 1} instead of the paper's 1..2.
    links = [
        replace(spec, p_idle=draw(st.integers(0, 1)), p_work=draw(st.integers(0, 1)))
        for spec in ExtendedPlatform.for_links(cluster, mapping.used_links()).links()
    ]
    dag = build_enhanced_dag(mapping, platform=ExtendedPlatform(cluster, links))
    deadline = int(draw(st.sampled_from([1.5, 2.0, 3.0])) * asap_makespan(dag))
    profile = generate_power_profile(
        draw(st.sampled_from(["S1", "S2", "S3", "S4"])), deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=8, rng=seed,
    )
    starts = greedy_schedule(ProblemInstance(dag, profile), base="slack").start_times()
    zero = draw(st.sets(st.sampled_from(dag.nodes()), max_size=3), label="zero")
    instance = ProblemInstance(with_zero_durations(dag, zero), profile)
    timeline = PowerTimeline(instance, Schedule(instance, starts))
    nodes = draw(
        st.lists(st.sampled_from(instance.dag.nodes()), min_size=1, max_size=12, unique=True),
        label="nodes",
    )
    los, his = [], []
    for node in nodes:
        limit = deadline - instance.dag.duration(node)
        lo = draw(st.one_of(st.just(0), st.integers(0, limit)))
        hi = draw(st.one_of(st.just(limit), st.just(lo - 1), st.integers(lo, limit)))
        los.append(lo)
        his.append(hi)
    return timeline, nodes, los, his


class TestBatchedGainProfiles:
    @given(case=batched_windows())
    @settings(max_examples=40, deadline=None)
    def test_batched_gains_equal_scalar_move_gain_loop(self, case):
        timeline, nodes, los, his = case
        before = timeline._power.copy()
        gains, offsets = timeline.gain_profiles(nodes, los, his)
        assert gains.dtype == np.int64
        assert offsets[0] == 0 and offsets[-1] == len(gains)
        for index, (node, lo, hi) in enumerate(zip(nodes, los, his)):
            start = timeline.start_of(node)
            expected = [
                timeline.move_gain(node, candidate) if candidate != start else 0
                for candidate in range(lo, hi + 1)
            ]
            assert gains[offsets[index] : offsets[index + 1]].tolist() == expected, node
        # The timeline itself is untouched by the evaluation.
        assert np.array_equal(timeline._power, before)

    def test_no_tasks_yield_no_gains(self, tiny_multi_instance):
        timeline = PowerTimeline(
            tiny_multi_instance, greedy_schedule(tiny_multi_instance, base="slack")
        )
        gains, offsets = timeline.gain_profiles([], [], [])
        assert gains.size == 0 and offsets.tolist() == [0]


class TestLocalSearchParity:
    @given(
        instance=INSTANCE_STRATEGY,
        base=st.sampled_from(["slack", "pressure"]),
        best=st.booleans(),
        window=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_local_search_byte_identical_between_kernels(
        self, instance, base, best, window
    ):
        greedy = greedy_schedule(instance, base=base, refined=True)
        fast = local_search([greedy], window=window, best_improvement=best)[0]
        slow = _scalar_local_search(greedy, window=window, best_improvement=best)
        assert fast.start_times() == slow
        assert fast.algorithm == f"{greedy.algorithm}-LS"

    @given(
        instance=INSTANCE_STRATEGY,
        window=st.sampled_from([0, 1, 10]),
        best=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_group_call_equals_single_calls(self, instance, window, best, data):
        greedy = [
            greedy_schedule(instance, base=base, weighted=weighted, refined=refined)
            for base in ("slack", "pressure")
            for weighted in (False, True)
            for refined in (False, True)
        ]
        picks = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8), label="group")
        group = [greedy[pick] for pick in picks]
        together = local_search(group, window=window, best_improvement=best)
        assert len(together) == len(group)
        for schedule, improved in zip(group, together):
            alone = local_search([schedule], window=window, best_improvement=best)[0]
            assert list(improved.start_times().items()) == list(alone.start_times().items())
            assert improved.algorithm == alone.algorithm
            assert improved._cost == alone._cost
        # The input schedules are not modified.
        assert [schedule.start_times() for schedule in group] == [
            greedy[pick].start_times() for pick in picks
        ]

    def test_group_holding_one_schedule_twice(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        other = greedy_schedule(tiny_multi_instance, base="slack")
        alone = local_search([greedy])[0]
        twice = local_search([greedy, other, greedy])
        assert twice[0].start_times() == twice[2].start_times() == alone.start_times()
        assert twice[0]._cost == twice[2]._cost == alone._cost
        assert twice[1].start_times() == local_search([other])[0].start_times()

    def test_kernel_calls_bounded_by_rounds_plus_moves(self, monkeypatch):
        # One batched call per round plus at most one per accepted move,
        # never one per task visit.  In a lock-step group one call serves
        # every search at once, so the group's calls are bounded by the
        # largest per-search rounds + moves.
        from repro.experiments.instances import default_grid, make_instance

        calls, moves = [0], [0]
        # Per search: rounds + moves.
        work: Counter = Counter()

        def counting(method, name=None):
            def wrapper(*args, **kwargs):
                if name is None:
                    calls[0] += 1
                else:
                    work[id(args[0])] += 1
                    moves[0] += name == "moves"
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PowerTimeline, "_gain_rows", counting(PowerTimeline._gain_rows))
        monkeypatch.setattr(_BatchedSearch, "walk", counting(_BatchedSearch.walk, "rounds"))
        monkeypatch.setattr(
            _BatchedSearch, "_apply_move", counting(_BatchedSearch._apply_move, "moves")
        )
        for spec in default_grid(sizes=(30,), seed=1)[::8]:
            instance = make_instance(spec, master_seed=1)
            greedy = [
                greedy_schedule(instance, base=base, weighted=weighted, refined=refined)
                for base in ("slack", "pressure")
                for weighted in (False, True)
                for refined in (False, True)
            ]
            for best in (False, True):
                for group in [[schedule] for schedule in greedy] + [greedy]:
                    calls[0] = 0
                    work.clear()
                    local_search(group, best_improvement=best)
                    assert len(work) >= len(group)
                    assert 1 <= calls[0] <= max(work.values())
        # The bound is exercised by runs that re-score after a move.
        assert moves[0] > 0

    def test_kernel_calls_of_a_job_are_pinned(self, monkeypatch):
        # A job of all 17 variants on each instance of the byte-identity
        # fixture runs its eight local searches as one lock-step group; run
        # alone, the same searches make 212 calls in total.
        from pathlib import Path

        from repro.api.execute import execute_job
        from repro.api.jobs import Job
        from repro.core.variants import variant_names
        from repro.io.wire import load_instance

        calls = [0]
        kernel = PowerTimeline._gain_rows

        def counting(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(PowerTimeline, "_gain_rows", counting)
        fixture = Path(__file__).parent / "data" / "identity"
        observed = {}
        for path in sorted(fixture.glob("*_*.json")):
            calls[0] = 0
            execute_job(Job.from_instance(load_instance(path), variants=variant_names()))
            observed[path.name] = calls[0]
        assert observed == {
            "atacseq_large_S2.json": 16,
            "bacass_large_S2.json": 1,
            "chain_single_S3.json": 4,
            "eager_small_S4.json": 3,
            "forkjoin_large_S1.json": 1,
            "layered_small_S2.json": 12,
            "methylseq_single_S1.json": 3,
            "random_small_S2.json": 12,
        }

    def test_seed_grid_byte_identity(self, monkeypatch):
        from repro.core.scheduler import CaWoSched
        from repro.core.variants import get_variant
        from repro.experiments.instances import default_grid, make_instance

        scheduler = CaWoSched()
        specs = default_grid(sizes=(24,), seed=0)[::6]
        variants = ["slack-LS", "press-LS", "slackWR-LS", "pressWR-LS"]
        for spec in specs:
            instance = make_instance(spec, master_seed=0)
            for variant in variants:
                variant_spec = get_variant(variant)

                def build_greedy():
                    return greedy_schedule(
                        instance,
                        base=variant_spec.base,
                        weighted=variant_spec.weighted,
                        refined=variant_spec.refined,
                        block_size=scheduler.block_size,
                    )

                fast = scheduler.run(instance, variant).schedule
                fast_greedy = build_greedy()
                # The reference greedy re-derives EST/LST with the full
                # two-sweep recompute after every fix.  The greedy fixes tasks
                # in score order, not topological order, so this pins the
                # incremental propagation on the fix order real runs use.
                with monkeypatch.context() as patch:
                    patch.setattr(
                        EstLstTracker, "_propagate_fix",
                        lambda tracker, index, start: tracker._recompute(),
                    )
                    slow_greedy = build_greedy()
                assert fast_greedy.start_times() == slow_greedy.start_times(), (
                    spec, variant)
                slow = _scalar_local_search(slow_greedy, window=scheduler.window)
                assert fast.start_times() == slow, (spec, variant)


class TestEstLstParity:
    @given(instance=INSTANCE_STRATEGY, seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_incremental_fix_matches_full_recompute(self, instance, seed):
        dag = instance.dag
        incremental = EstLstTracker(dag, instance.deadline)
        # The reference is re-derived with the full two-sweep recompute
        # after every fix; the tracker under test only ever propagates.
        reference = EstLstTracker(dag, instance.deadline)

        # Fix in a random order: the greedy phase fixes tasks by score, not
        # in topological order, so propagation must handle both directions.
        rng = ensure_rng(seed)
        nodes = dag.topological_order()
        for position in rng.permutation(len(nodes)):
            node = nodes[int(position)]
            lo, hi = incremental.est(node), incremental.lst(node)
            start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
            incremental.fix(node, start)
            reference.fix(node, start)
            reference._recompute()
            assert incremental.est_map() == reference.est_map()
            assert incremental.lst_map() == reference.lst_map()


class TestSubdivisionParity:
    @given(instance=INSTANCE_STRATEGY, block_size=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_block_alignment_points_match_naive_enumeration(
        self, instance, block_size
    ):
        expected = _naive_block_alignment_points(instance, block_size)
        assert block_alignment_points(instance, block_size=block_size) == expected


def _naive_block_alignment_points(instance: ProblemInstance, block_size: int) -> set:
    """The original per-(block, alignment, task) enumeration, kept as oracle."""
    dag = instance.dag
    profile = instance.profile
    horizon = profile.horizon
    boundaries = profile.boundaries()
    points = set()
    for processor in dag.processors_with_tasks():
        tasks = dag.tasks_on(processor)
        durations = [dag.duration(task) for task in tasks]
        num_tasks = len(tasks)
        for begin_index in range(num_tasks):
            block_duration = 0
            offsets = []
            for end_index in range(begin_index, min(begin_index + block_size, num_tasks)):
                offsets.append(block_duration)
                block_duration += durations[end_index]
                for boundary in boundaries:
                    for block_start in (boundary, boundary - block_duration):
                        if block_start < 0:
                            continue
                        for offset in offsets:
                            candidate = block_start + offset
                            if 0 <= candidate < horizon:
                                points.add(candidate)
    return points


def _scalar_local_search(
    schedule, *, window: int, best_improvement: bool = False
) -> Dict[Hashable, int]:
    """The paper's hill climber, one ``move_gain`` call per candidate start.

    Kept as the executable specification of ``local_search``: same processor
    order, same task order, same first-/best-improvement rule; returns the
    final start times.
    """
    instance = schedule.instance
    dag = instance.dag
    deadline = instance.deadline
    starts = schedule.start_times()
    timeline = PowerTimeline(instance, schedule)
    processors = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-dag.platform.processor(proc).p_work, str(proc)),
    )

    def improve(node: Hashable) -> bool:
        current = starts[node]
        duration = dag.duration(node)
        earliest = max(
            (starts[pred] + dag.duration(pred) for pred in dag.predecessors(node)),
            default=0,
        )
        latest = min(
            (starts[succ] for succ in dag.successors(node)), default=deadline
        ) - duration
        latest = min(latest, deadline - duration)
        lo = max(earliest, current - window)
        hi = min(latest, current + window)
        best_gain, best_candidate = 0, None
        for candidate in range(lo, hi + 1):
            if candidate == current:
                continue
            gain = timeline.move_gain(node, candidate)
            if gain > best_gain:
                best_gain, best_candidate = gain, candidate
                if not best_improvement:
                    break
        if best_candidate is None:
            return False
        timeline.move(node, best_candidate)
        starts[node] = best_candidate
        return True

    improved = True
    while improved:
        improved = False
        for processor in processors:
            for node in dag.tasks_on(processor):
                if improve(node):
                    improved = True
    return starts
