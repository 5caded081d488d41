"""The enhanced DAG's rows by topological rank, against an independent derivation.

The DAG numbers its nodes once, when it is built, and every scheduler phase
reads the same rows: positions, durations, predecessor and successor rows,
powers and the ASAP starts.  These tests rebuild each row from the DAG's
public accessors (its topological order and adjacency maps) on the identity
fixtures and on simulator jobs, and check that instances over one DAG share
the rows instead of rebuilding them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.carbon.intervals import PowerProfile
from repro.core.estlst import EstLstTracker
from repro.core.local_search import _Search, _search_walk
from repro.io.wire import load_instance
from repro.schedule.asap import asap_schedule, earliest_start_times
from repro.schedule.instance import ProblemInstance
from repro.sim.workload import WorkloadConfig, build_job
from schedule_helpers import reference_earliest_starts

IDENTITY = Path(__file__).parent / "data" / "identity"
FIXTURES = sorted(p.name for p in IDENTITY.glob("*.json") if p.name != "expected.json")


def _check_rows(dag) -> None:
    order = dag.topological_order()
    position = {node: rank for rank, node in enumerate(order)}
    assert dag._order == order
    assert dag._position == position
    assert dag._duration_row == [dag.duration(node) for node in order]
    preds, succs = dag.predecessor_map(), dag.successor_map()
    assert dag._pred_rows == [
        [(position[pred], dag.duration(pred)) for pred in preds[node]] for node in order
    ]
    assert dag._succ_rows == [[position[succ] for succ in succs[node]] for node in order]
    specs = [dag.processor_spec(node) for node in order]
    assert dag._work_power_row == [spec.p_work for spec in specs]
    assert dag._active_power_row == [spec.total_power for spec in specs]
    assert dag._work_power == {node: spec.p_work for node, spec in zip(order, specs)}
    # The ASAP row against the dict sweep, key order included.
    reference = reference_earliest_starts(dag)
    assert list(earliest_start_times(dag).items()) == list(reference.items())
    assert dag._asap_row == [reference[node] for node in order]
    finishes = [reference[node] + dag.duration(node) for node in order]
    assert dag.critical_path_duration() == max(finishes)
    assert dag._total_duration == sum(dag.duration(node) for node in order)


@pytest.mark.parametrize("name", FIXTURES)
def test_identity_fixture_rows_match_an_independent_derivation(name):
    _check_rows(load_instance(IDENTITY / name).dag)


def test_simulator_job_rows_match_an_independent_derivation():
    workload = WorkloadConfig(families=("atacseq", "eager", "bacass"), sizes=(8, 12, 20))
    for index in range(50):
        _check_rows(build_job(workload, 7, index, 0).dag)


def test_instances_over_one_dag_share_its_rows():
    instance = load_instance(IDENTITY / FIXTURES[0])
    dag = instance.dag
    other = ProblemInstance(dag, PowerProfile.constant(instance.deadline + 7, 3))
    trackers = [EstLstTracker(dag, each.deadline) for each in (instance, other)]
    for tracker in trackers:
        assert tracker._position is dag._position
        assert tracker._duration is dag._duration_row
        assert tracker._preds is dag._pred_rows
        assert tracker._succs is dag._succ_rows
    searches = [
        _Search(each, asap_schedule(each), 10, False) for each in (instance, other)
    ]
    for search in searches:
        assert search._walk is _search_walk(dag)
        assert search._powers is dag._work_power_row
        assert search._preds is dag._pred_rows
