"""The DAG memo: what depends on the communication-enhanced DAG alone is shared.

Every :class:`~repro.schedule.instance.ProblemInstance` over one
:class:`~repro.mapping.enhanced_dag.EnhancedDAG` (the online simulator plans
each workflow against several profiles) reads the rows by topological rank
that the DAG builds with itself (durations, graph rows, powers, ASAP
starts, critical path) and, from the DAG's memo, the score rows, the local
search's walk, the block lag sums and the wire payload's graph part.  These
tests check that sharing them changes no fingerprint, schedule or cost, and
that nothing the DAG holds depends on the profile or the deadline.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api import Client, Job, job_fingerprint
from repro.api.jobs import _graph_part, _graph_text
from repro.carbon.intervals import PowerProfile
from repro.carbon.traces import synthetic_daily_trace
from repro.core.scheduler import CaWoSched
from repro.core.variants import variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import canonical_json, instance_from_dict, instance_to_dict, load_instance
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import cluster_preset
from repro.schedule.instance import ProblemInstance
from repro.sim.signal import CarbonSignal
from repro.sim.workload import WorkloadConfig, build_job
from repro.workflow.dag import Workflow
from schedule_helpers import profile_from_time_unit_budgets

IDENTITY = Path(__file__).parent / "data" / "identity"
SPEC = InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1)
VARIANTS = ("pressWR", "pressWR-LS", "slackR")


def _unicode_instance() -> ProblemInstance:
    """A small instance whose task names are not ASCII."""
    workflow = Workflow("wörkflow")
    names = ["α", "βeta", "日本", "ünïcode", "Ωmega"]
    for index, name in enumerate(names):
        workflow.add_task(name, work=2 + index)
    for source, target in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]:
        workflow.add_dependency(names[source], names[target], data=3)
    heft = heft_mapping(workflow, cluster_preset("small"))
    dag = build_enhanced_dag(heft.mapping, rng=3)
    horizon = 2 * dag.critical_path_duration()
    return ProblemInstance(dag, PowerProfile([horizon // 2, horizon - horizon // 2], [40, 90]))


def _twins(instance: ProblemInstance):
    """Instances over *instance*'s DAG that differ in profile, name and metadata."""
    dag, profile = instance.dag, instance.profile
    budgets = list(profile.budgets_per_time_unit())
    return [
        instance,
        ProblemInstance(dag, profile, name="relabelled", metadata={"tag": "ü"}),
        ProblemInstance(dag, profile_from_time_unit_budgets(budgets[::-1])),
        ProblemInstance(dag, PowerProfile.constant(profile.horizon + 9, 17), name="longer"),
    ]


def _expected_fingerprint(instance: ProblemInstance, job: Job) -> str:
    return job_fingerprint(instance_to_dict(instance), job.variants, job.scheduler)


class TestFingerprintsOverOneDag:
    @pytest.mark.parametrize("source", ["grid", "unicode"])
    def test_live_fingerprints_match_the_payload_fingerprint(self, source):
        base = make_instance(SPEC) if source == "grid" else _unicode_instance()
        fingerprints = []
        for instance in _twins(base):
            job = Job.from_instance(instance, variants=VARIANTS)
            assert job.fingerprint == _expected_fingerprint(instance, job)
            rebuilt = instance_from_dict(instance_to_dict(instance))
            assert rebuilt.dag is not instance.dag
            assert Job.from_instance(rebuilt, variants=VARIANTS).fingerprint == job.fingerprint
            fingerprints.append(job.fingerprint)
        # Labels do not count, profiles do.
        assert fingerprints[0] == fingerprints[1]
        assert len(set(fingerprints)) == 3

    def test_simulator_jobs_share_a_dag_and_keep_their_fingerprints(self):
        workload = WorkloadConfig()
        cluster = cluster_preset(workload.cluster)
        signal = CarbonSignal(
            synthetic_daily_trace("solar", sample_duration=60, rng=2),
            idle_power=cluster.total_idle_power(),
            work_power=cluster.total_work_power(),
        )
        for index in range(6):
            job = build_job(workload, 11, index, arrival=37 * index)
            for now in (job.arrival, job.arrival + 5, job.arrival + 61):
                length = max(job.abs_deadline - now, job.min_makespan)
                instance = ProblemInstance(job.dag, signal.window(now, length), name=job.name)
                live = Job.from_instance(instance, variants=("pressWR",))
                assert live.fingerprint == _expected_fingerprint(instance, live)

    def test_jobs_from_one_instance_share_its_payload(self):
        instance = make_instance(SPEC)
        first, second = (Job.from_instance(instance, variants=VARIANTS) for _ in range(2))
        assert first.payload is second.payload
        other = Job.from_instance(_twins(instance)[2], variants=VARIANTS)
        # One serialised mapping per DAG, shared by every instance over it.
        assert other.payload["mapping"] is first.payload["mapping"]
        assert other.payload["profile"] != first.payload["profile"]


def _deadline_profiles(instance: ProblemInstance):
    """Two profiles over the same budgets with deadlines ``T1 > T2``.

    ``T2`` leaves the critical path one unit of slack, so EST/LST windows
    computed for ``T1`` would let the greedy phase miss it.
    """
    budgets = list(instance.profile.budgets_per_time_unit())
    shorter = instance.dag.critical_path_duration() + 1
    assert shorter < len(budgets)
    return instance.profile, profile_from_time_unit_budgets(budgets[:shorter])


class TestNothingInTheDagMemoDependsOnTheDeadline:
    @pytest.mark.parametrize(
        "spec",
        [SPEC, InstanceSpec("atacseq", 20, "large", "S2", 2.0, seed=4)],
        ids=lambda spec: spec.label,
    )
    def test_deadlines_t1_t2_t1_match_fresh_dags(self, spec):
        shared = make_instance(spec)
        long, short = _deadline_profiles(shared)
        names = [name for name in variant_names() if name != "ASAP"]
        for profile, block_size in ((long, 2), (short, 3), (long, 3), (short, 2), (long, 2)):
            scheduler = CaWoSched(block_size=block_size)
            warm = ProblemInstance(shared.dag, profile)
            # A DAG rebuilt through the wire format has a memo of its own.
            fresh = instance_from_dict(instance_to_dict(warm))
            assert fresh.dag is not shared.dag
            for name in names:
                warm_result = scheduler.run(warm, name)
                fresh_result = scheduler.run(fresh, name)
                assert warm_result.schedule.start_times() == fresh_result.schedule.start_times()
                assert warm_result.carbon_cost == fresh_result.carbon_cost


#: The DAG's rows by topological rank, built with it.
ROWS = (
    "_order", "_position", "_duration_row", "_pred_rows", "_succ_rows", "_work_power_row",
    "_active_power_row", "_work_power", "_asap_row", "_critical_path", "_total_duration",
)


def _contents(dag) -> dict:
    """Return a deep, comparable copy of *dag*'s rows and memo."""
    return _snapshot({**{name: getattr(dag, name) for name in ROWS}, **dag._memo})


def _snapshot(memo) -> dict:
    """Return a deep, comparable copy of a DAG memo."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return ("array", value.dtype.str, value.tolist())
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(plain(item) for item in value)
        return value

    return {key: plain(value) for key, value in memo.items()}


class TestDagMemoContents:
    def test_memo_unchanged_by_runs_and_equal_to_a_fresh_dag(self):
        instance = make_instance(SPEC)
        dag = instance.dag
        client = Client()
        client.submit(Job.from_instance(instance, variants=variant_names()))
        for block_size in (2, 3):
            twin = ProblemInstance(dag, _deadline_profiles(instance)[1])
            client.submit(
                Job.from_instance(twin, scheduler=CaWoSched(block_size=block_size))
            )
        assert set(dag._memo) == {
            "score_rows",
            "search_rows",
            ("block_lag_sums", 2),
            ("block_lag_sums", 3),
            "wire_graph",
            "wire_graph_text",
        }
        before = _contents(dag)
        for name in variant_names():
            CaWoSched(block_size=2).run(ProblemInstance(dag, instance.profile), name)
        assert _contents(dag) == before

        # A fresh DAG computes the same values from scratch.
        fresh = make_instance(SPEC)
        client = Client()
        client.submit(Job.from_instance(fresh, variants=variant_names()))
        CaWoSched(block_size=2).run(fresh, "slackR")
        assert _contents(fresh.dag) == before


class TestComposedGraphText:
    """The DAG's canonical text, composed from its members, is the one encoding."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in IDENTITY.glob("*.json") if p.name != "expected.json")
    )
    def test_identity_fixtures(self, name):
        dag = load_instance(IDENTITY / name).dag
        assert _graph_text(dag) == canonical_json(_graph_part(dag))

    def test_simulator_jobs_and_unicode_names(self):
        workload = WorkloadConfig(families=("atacseq", "eager", "bacass"), sizes=(8, 12, 20))
        dags = [build_job(workload, 5, index, 0).dag for index in range(50)]
        for dag in dags + [_unicode_instance().dag]:
            assert _graph_text(dag) == canonical_json(_graph_part(dag))
        # The jobs share one cluster, so its text is encoded once.
        assert len({id(dag.mapping.cluster._memo["canonical_text"]) for dag in dags}) == 1
