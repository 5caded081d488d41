"""Tests for the EST/LST tracker used by the greedy phase."""

from __future__ import annotations

import pytest

from repro.core.estlst import EstLstTracker
from repro.schedule.asap import earliest_start_times, latest_start_times
from repro.utils.errors import InfeasibleScheduleError


class TestInitialState:
    def test_matches_static_est_lst(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        assert tracker.est_map() == earliest_start_times(dag)
        assert tracker.lst_map() == latest_start_times(dag, tiny_multi_instance.deadline)

    def test_slack_definition(self, tiny_multi_instance):
        tracker = EstLstTracker(tiny_multi_instance.dag, tiny_multi_instance.deadline)
        for node in tiny_multi_instance.dag.nodes():
            assert tracker.slack(node) == tracker.lst(node) - tracker.est(node)

    def test_infeasible_deadline_raises(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        with pytest.raises(InfeasibleScheduleError):
            EstLstTracker(dag, dag.critical_path_duration() - 1)


class TestFixing:
    def test_fix_pins_both_bounds(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        node = dag.topological_order()[0]
        start = tracker.lst(node)
        tracker.fix(node, start)
        assert tracker.est(node) == start
        assert tracker.lst(node) == start
        assert tracker.is_fixed(node)
        assert tracker.fixed_start(node) == start

    def test_fix_propagates_to_successors(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        node = dag.topological_order()[0]
        successors = dag.successors(node)
        if not successors:
            pytest.skip("first node has no successor in this DAG")
        start = tracker.lst(node)
        tracker.fix(node, start)
        for successor in successors:
            assert tracker.est(successor) >= start + dag.duration(node)

    def test_fix_propagates_to_predecessors(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        node = dag.topological_order()[-1]
        predecessors = dag.predecessors(node)
        if not predecessors:
            pytest.skip("last node has no predecessor in this DAG")
        start = tracker.est(node)
        tracker.fix(node, start)
        for predecessor in predecessors:
            assert tracker.lst(predecessor) + dag.duration(predecessor) <= start

    def test_fix_outside_window_rejected(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        node = dag.topological_order()[0]
        with pytest.raises(InfeasibleScheduleError):
            tracker.fix(node, tracker.lst(node) + 1)

    def test_double_fix_rejected(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        node = dag.topological_order()[0]
        tracker.fix(node, tracker.est(node))
        with pytest.raises(InfeasibleScheduleError):
            tracker.fix(node, tracker.est(node))

    def test_fixing_all_nodes_in_window_stays_feasible(self, tiny_multi_instance):
        """Fixing any node within its current window must never break the rest."""
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        # Always pick the latest possible start — the most aggressive choice.
        for node in dag.topological_order():
            tracker.fix(node, tracker.lst(node))
        fixed = tracker.fixed_starts()
        # The resulting assignment is a feasible schedule.
        for source, target in dag.edges():
            assert fixed[target] >= fixed[source] + dag.duration(source)
        for node in dag.nodes():
            assert fixed[node] + dag.duration(node) <= tiny_multi_instance.deadline

    def test_windows_only_shrink(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        tracker = EstLstTracker(dag, tiny_multi_instance.deadline)
        before_est = tracker.est_map()
        before_lst = tracker.lst_map()
        node = dag.topological_order()[len(dag.nodes()) // 2]
        tracker.fix(node, tracker.est(node))
        for other in dag.nodes():
            assert tracker.est(other) >= before_est[other]
            assert tracker.lst(other) <= before_lst[other]


class TestWorklistWork:
    """Deterministic work counts of the rank-ordered relax-on-push worklist.

    The eight greedy variants run on every instance of the byte-identity
    fixture (``tests/data/identity``).  An expansion reads the expanded
    task's successor row (forward pass) or predecessor row (backward pass),
    so the tracker's rows are swapped for counting ones during each fix; an
    update pushes the changed neighbour, so the tracker's ``heappush`` is
    counted.
    """

    #: Totals over the fixture's 2,472 fixes; a change must explain new values.
    EXPANSIONS = 6036
    UPDATES = 4977

    def test_work_counts_are_pinned_and_expansions_unique(self, monkeypatch):
        import heapq
        from pathlib import Path

        import repro.core.estlst as estlst
        from repro.core.greedy import greedy_schedule
        from repro.io.wire import load_instance

        class CountingRows(list):
            def __init__(self, rows, log):
                super().__init__(rows)
                self.log = log

            def __getitem__(self, index):
                self.log.append(index)
                return list.__getitem__(self, index)

        fixes = []
        propagate = EstLstTracker._propagate_fix

        def counted(tracker, index, start):
            fix = {"forward": [], "backward": [], "updates": 0}
            fixes.append(fix)
            preds, succs = tracker._preds, tracker._succs
            tracker._succs = CountingRows(succs, fix["forward"])
            tracker._preds = CountingRows(preds, fix["backward"])
            try:
                propagate(tracker, index, start)
            finally:
                tracker._preds, tracker._succs = preds, succs

        def push(heap, item):
            fixes[-1]["updates"] += 1
            heapq.heappush(heap, item)

        monkeypatch.setattr(EstLstTracker, "_propagate_fix", counted)
        monkeypatch.setattr(estlst, "heappush", push)
        fixture = Path(__file__).parent / "data" / "identity"
        for path in sorted(fixture.glob("*.json")):
            if path.name == "expected.json":
                continue
            instance = load_instance(path)
            for base in ("slack", "pressure"):
                for weighted in (False, True):
                    for refined in (False, True):
                        greedy_schedule(instance, base=base, weighted=weighted, refined=refined)
        assert len(fixes) == 2472
        for fix in fixes:
            # Each pass of a fix expands a task at most once.
            assert len(fix["forward"]) == len(set(fix["forward"]))
            assert len(fix["backward"]) == len(set(fix["backward"]))
        expansions = sum(len(fix["forward"]) + len(fix["backward"]) for fix in fixes)
        updates = sum(fix["updates"] for fix in fixes)
        assert (expansions, updates) == (self.EXPANSIONS, self.UPDATES)
