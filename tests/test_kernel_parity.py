"""Parity suite for the vectorized scheduling kernels.

The library has one implementation of each hot path; this module keeps the
original scalar algorithms as test-only references and pins the contract
that the library is *byte-identical* to them:

* ``_Search._full_score`` picks the first (or the best) candidate start
  whose ``PowerTimeline.move_gain`` is positive,
* ``local_search`` returns the same start times as the per-candidate
  ``move_gain`` hill climber (:func:`_scalar_local_search`), also with
  zero-power and zero-duration tasks, a call on many schedules returns what
  each schedule's call returns alone, and every task its two no-gain tests
  call clean has no positive gain,
* every incremental ``EstLstTracker.fix`` leaves the same EST/LST maps as
  the full two-sweep recompute,
* the lag-difference form of ``block_alignment_points`` equals the original
  per-(block, alignment, task) enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, Hashable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.scenarios import generate_power_profile
from repro.core.estlst import EstLstTracker
from repro.core.greedy import greedy_schedule
from repro.core.local_search import _Search, _search_rows, local_search
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


class TestFullScoreParity:
    def test_target_is_the_first_or_best_positive_move_gain(self):
        # For every task of a drawn schedule and a drawn window of candidate
        # starts, _full_score returns the first start whose
        # PowerTimeline.move_gain is positive (first improvement) or the
        # first start of maximum positive gain (best improvement), and -1
        # when no gain is positive.  The schedules are greedy ones with a
        # few tasks relocated anywhere in the horizon.
        found: Counter = Counter()

        @given(
            instance=INSTANCE_STRATEGY,
            best=st.booleans(),
            seed=st.integers(0, 10**6),
            data=st.data(),
        )
        @settings(max_examples=40, deadline=None)
        def check(instance, best, seed, data):
            dag = instance.dag
            deadline = instance.deadline
            base = data.draw(st.sampled_from(["slack", "pressure"]), label="base")
            starts = greedy_schedule(instance, base=base).start_times()
            moved = data.draw(st.lists(st.sampled_from(dag.nodes()), max_size=4), label="moved")
            for node in moved:
                limit = deadline - dag.duration(node)
                starts[node] = data.draw(st.integers(0, limit), label="start")
            schedule = Schedule(instance, starts)
            timeline = PowerTimeline(instance, schedule)
            walk, powers = _search_rows(dag, instance.work_power_map)
            search = _Search(instance, schedule, walk, powers, 10, best)
            rng = ensure_rng(seed)
            for index, node in enumerate(dag.topological_order()):
                start, duration = starts[node], dag.duration(node)
                limit = deadline - duration
                lo = int(rng.integers(max(0, start - 12), min(start, limit) + 1))
                hi = int(rng.integers(lo, min(limit, lo + 24) + 1))
                stop = max(hi, start) + duration
                target = search._full_score(index, lo, hi, min(lo, start), stop)
                gains = [timeline.move_gain(node, candidate) for candidate in range(lo, hi + 1)]
                top = max(gains)
                if top <= 0:
                    expected = -1
                elif best:
                    expected = lo + gains.index(top)
                else:
                    expected = lo + next(k for k, gain in enumerate(gains) if gain > 0)
                assert target == expected, (node, lo, hi, gains)
                found["none" if expected < 0 else "lo" if expected == lo else "later"] += 1

        check()
        assert min(found["none"], found["lo"], found["later"]) > 0, found


class TestGainProfileParity:
    @given(instance=INSTANCE_STRATEGY)
    @settings(max_examples=10, deadline=None)
    def test_empty_window_yields_empty_profile(self, instance):
        schedule = greedy_schedule(instance, base="pressure")
        timeline = PowerTimeline(instance, schedule)
        node = instance.dag.nodes()[0]
        start = timeline.start_of(node)
        assert timeline.gain_profile(node, start, start - 1).size == 0


@st.composite
def zero_power_schedules(draw):
    """A greedy schedule of an instance with zero-power and zero-duration tasks.

    The PT5 processor and some links draw no working power, and up to three
    nodes take no time; the greedy starts, computed before those durations
    drop to zero, stay feasible.
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
    base = draw(st.sampled_from(["slack", "pressure"]))
    starts = greedy_schedule(ProblemInstance(dag, profile), base=base).start_times()
    zero = draw(st.sets(st.sampled_from(dag.nodes()), max_size=3), label="zero")
    instance = ProblemInstance(with_zero_durations(dag, zero), profile)
    return Schedule(instance, starts, algorithm=base)


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
        schedule=zero_power_schedules(),
        best=st.booleans(),
        window=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_power_and_zero_duration_tasks(self, schedule, best, window):
        fast = local_search([schedule], window=window, best_improvement=best)[0]
        slow = _scalar_local_search(schedule, window=window, best_improvement=best)
        assert fast.start_times() == slow

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

    def test_scores_bounded_by_walk_visits(self, monkeypatch):
        # A search scores a task only when its walk reaches it without a
        # stored score, so it never scores more often than it visits tasks,
        # and scores in full only what the two no-gain tests let through.
        from repro.experiments.instances import default_grid, make_instance

        moves = [0]
        # Per search: walk visits, _score calls and full scorings.
        work: Dict[_Search, Counter] = {}

        def counting(method, name):
            def wrapper(search, *args):
                if name == "visits":
                    work.setdefault(search, Counter())["visits"] += len(search._walk)
                elif name == "moves":
                    moves[0] += 1
                else:
                    work[search][name] += 1
                return method(search, *args)
            return wrapper

        monkeypatch.setattr(_Search, "walk", counting(_Search.walk, "visits"))
        monkeypatch.setattr(_Search, "_score", counting(_Search._score, "scores"))
        monkeypatch.setattr(_Search, "_full_score", counting(_Search._full_score, "full"))
        monkeypatch.setattr(_Search, "_apply_move", counting(_Search._apply_move, "moves"))
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
                    work.clear()
                    local_search(group, best_improvement=best)
                    assert len(work) == len(group)
                    for counts in work.values():
                        assert 1 <= counts["scores"] <= counts["visits"]
                        assert counts["full"] <= counts["scores"]
        # The bounds are exercised by runs that re-score after a move.
        assert moves[0] > 0

    def test_kernel_calls_of_a_job_are_pinned(self, monkeypatch):
        # A job of all 17 variants on each instance of the byte-identity
        # fixture runs eight local searches; the tasks they score, and the
        # ones they score in full, are pinned as (scores, full scorings).
        from pathlib import Path

        from repro.api.execute import execute_job
        from repro.api.jobs import Job
        from repro.core.variants import variant_names
        from repro.io.wire import load_instance

        counts: Counter = Counter()

        def counting(name, method):
            def wrapper(*args):
                counts[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(_Search, "_score", counting("scores", _Search._score))
        monkeypatch.setattr(_Search, "_full_score", counting("full", _Search._full_score))
        fixture = Path(__file__).parent / "data" / "identity"
        observed = {}
        for path in sorted(fixture.glob("*_*.json")):
            counts.clear()
            execute_job(Job.from_instance(load_instance(path), variants=variant_names()))
            observed[path.name] = (counts["scores"], counts["full"])
        assert observed == {
            "atacseq_large_S2.json": (729, 43),
            "bacass_large_S2.json": (184, 26),
            "chain_single_S3.json": (166, 4),
            "eager_small_S4.json": (430, 5),
            "forkjoin_large_S1.json": (224, 0),
            "layered_small_S2.json": (668, 112),
            "methylseq_single_S1.json": (236, 2),
            "random_small_S2.json": (621, 45),
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


class TestNoGainTests:
    def test_clean_tasks_have_no_positive_gain(self):
        # Every task that the search calls clean without scoring it in
        # full, by test (i) (it covers no cell of positive excess) or test
        # (ii) (its window reaches no cell of negative excess), has no
        # positive gain anywhere in its legal window.  The schedules are
        # greedy ones, some after random legal moves.
        fired: Counter = Counter()

        @given(
            instance=INSTANCE_STRATEGY,
            base=st.sampled_from(["slack", "pressure"]),
            window=st.integers(0, 12),
            data=st.data(),
        )
        @settings(max_examples=40, deadline=None)
        def check(instance, base, window, data):
            dag = instance.dag
            deadline = instance.deadline
            starts = greedy_schedule(instance, base=base).start_times()

            def legal(node, reach):
                current, duration = starts[node], dag.duration(node)
                lo = max(
                    [current - reach, 0]
                    + [starts[pred] + dag.duration(pred) for pred in dag.predecessors(node)]
                )
                hi = min(
                    [current + reach + duration, deadline]
                    + [starts[succ] for succ in dag.successors(node)]
                )
                return lo, hi - duration

            moves = data.draw(st.lists(st.sampled_from(dag.nodes()), max_size=12), label="moves")
            for node in moves:
                lo, hi = legal(node, deadline)
                starts[node] = data.draw(st.integers(lo, hi), label="start")
            schedule = Schedule(instance, starts)
            timeline = PowerTimeline(instance, schedule)
            walk, powers = _search_rows(dag, instance.work_power_map)
            search = _Search(instance, schedule, walk, powers, window, False)
            # Stand in for the full scoring, to see which tasks reach it.
            search._full_score = lambda *args: -2
            position = {node: index for index, node in enumerate(dag.topological_order())}
            excess = search._excess
            for node in dag.nodes():
                if search._score(position[node])[2] == -2:
                    continue
                lo, hi = legal(node, window)
                assert timeline.gain_profile(node, lo, hi).max(initial=0) <= 0, node
                current, duration = starts[node], dag.duration(node)
                covers_brown = (
                    instance.work_power_map[node] > 0
                    and duration > 0
                    and max(excess[current : current + duration]) > 0
                )
                fired["ii" if covers_brown else "i"] += 1

        check()
        assert fired["i"] > 0 and fired["ii"] > 0, fired


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

    @given(schedule=zero_power_schedules(), block_size=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_zero_duration_tasks_match_naive_enumeration(self, schedule, block_size):
        # A zero lag shifts a boundary onto itself, and the horizon T is a
        # boundary that is not a point.
        instance = schedule.instance
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
