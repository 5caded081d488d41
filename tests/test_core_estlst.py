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
        assert tracker.fixed_starts() == {node: start}

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
    fixture (``tests/data/identity``) with the rows of each run's tracker
    swapped for counting ones.  A fix marks its task fixed, so a write to
    the fixed row opens the fix's record.  An expansion reads the expanded
    task's successor row (forward pass) or predecessor row (backward pass).
    An update writes a neighbour's EST or LST: a write to the EST or LST row
    at any task other than the fixed one.
    """

    #: Totals over the fixture's 2,472 fixes; a change must explain new values.
    EXPANSIONS = 6036
    UPDATES = 4977

    def test_work_counts_are_pinned_and_expansions_unique(self, monkeypatch):
        from pathlib import Path

        from repro.core.greedy import greedy_schedule
        from repro.io.wire import load_instance

        fixes = []

        class FixedRow(list):
            def __setitem__(self, index, value):
                if value:
                    fixes.append({"task": index, "forward": [], "backward": [], "updates": 0})
                list.__setitem__(self, index, value)

        class StartRow(list):
            def __setitem__(self, index, value):
                if index != fixes[-1]["task"]:
                    fixes[-1]["updates"] += 1
                list.__setitem__(self, index, value)

        class NeighbourRows(list):
            def __init__(self, rows, direction):
                super().__init__(rows)
                self.direction = direction

            def __getitem__(self, index):
                fixes[-1][self.direction].append(index)
                return list.__getitem__(self, index)

        copy = EstLstTracker._copy

        def counting_copy(tracker):
            twin = copy(tracker)
            twin._is_fixed = FixedRow(twin._is_fixed)
            twin._est, twin._lst = StartRow(twin._est), StartRow(twin._lst)
            twin._succs = NeighbourRows(twin._succs, "forward")
            twin._preds = NeighbourRows(twin._preds, "backward")
            return twin

        monkeypatch.setattr(EstLstTracker, "_copy", counting_copy)
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
