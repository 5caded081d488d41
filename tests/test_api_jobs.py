"""Tests for the typed job model (:mod:`repro.api.jobs`)."""

from __future__ import annotations

import hashlib

import pytest

from repro.api import InvalidJob, Job, UnknownVariant, job_fingerprint
from repro.core.scheduler import CaWoSched
from repro.core.variants import variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.wire import canonical_json, instance_to_dict
from repro.schedule.instance import ProblemInstance

VARIANTS = ("ASAP", "pressWR-LS")


@pytest.fixture
def grid_instance():
    return make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1))


class TestJobConstruction:
    def test_from_instance_defaults_to_all_variants(self, grid_instance):
        job = Job.from_instance(grid_instance)
        assert job.variants == tuple(variant_names())
        assert job.live_instance is grid_instance
        assert job.payload == instance_to_dict(grid_instance)

    def test_from_spec_is_lazy_but_validated(self):
        job = Job.from_spec(
            {"family": "chain", "tasks": 6, "cluster": "single"},
            variants=("ASAP",),
        )
        assert job.payload is None
        assert job.spec["family"] == "chain"
        assert job.instance().num_tasks >= 1

    def test_from_spec_rejects_malformed_fields(self):
        with pytest.raises(InvalidJob, match="malformed job spec"):
            Job.from_spec({"family": "chain", "tasks": "many"})

    def test_from_dict_requires_exactly_one_source(self):
        with pytest.raises(InvalidJob, match="'instance' payload or a 'spec'"):
            Job.from_dict({"variants": ["ASAP"]})
        with pytest.raises(InvalidJob, match="'instance' payload or a 'spec'"):
            Job.from_dict(
                {"instance": {}, "spec": {"family": "chain", "tasks": 4}}
            )

    def test_from_dict_rejects_malformed_scheduler(self, grid_instance):
        with pytest.raises(InvalidJob, match="malformed scheduler config"):
            Job.from_dict(
                {
                    "instance": instance_to_dict(grid_instance),
                    "scheduler": {"block_size": "huge"},
                }
            )

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"variant": ["ASAP"]}, "unknown job field 'variant'; known: instance, spec,"),
            ({"priority": 3}, "unknown job field 'priority'"),
            ({"tags": ["urgent"]}, "unknown job field 'tags'"),
            ({"scheduler": {"windw": 5}}, "unknown scheduler field 'windw'; known: block_size"),
            ({"spec": {"family": "chain", "taks": 6}}, "unknown job spec field 'taks'; known: family"),
            # Every schedule is checked; there is no switch to turn it off.
            ({"scheduler": {"validate": True}},
             "unknown scheduler field 'validate'; known: block_size, window"),
        ],
    )
    def test_from_dict_rejects_unknown_fields(self, entry, message):
        data = {"spec": {"family": "chain", "tasks": 6, "cluster": "single"}, **entry}
        with pytest.raises(InvalidJob) as excinfo:
            Job.from_dict(data)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"spec": {"family": "chain", "tasks": 6, "cluster": "huge"}}, "unknown cluster 'huge'"),
            ({"spec": {"family": "nope", "tasks": 6}}, "unknown family 'nope'"),
            ({"spec": {"family": "chain", "tasks": 6, "scenario": "S9"}}, "unknown scenario 'S9'"),
            ({"spec": {"family": "chain", "tasks": 6, "deadline_factor": 0.5}},
             "deadline_factor must be >= 1"),
            ({"spec": {"family": "chain", "tasks": 0}}, "tasks must be positive"),
            ({"spec": {"family": "chain", "tasks": -3}}, "tasks must be positive"),
            ({"spec": {"family": "chain", "tasks": 6, "nodes_per_type": 0}},
             "nodes_per_type must be positive"),
            ({"spec": {"family": "chain", "tasks": 6}, "variants": "ASAP"},
             "malformed job field 'variants'"),
            ({"spec": {"family": "chain", "tasks": 6}, "scheduler": {"window": -1}},
             "window must be non-negative"),
            ({"spec": {"family": "chain", "tasks": 6}, "scheduler": {"block_size": 0}},
             "block_size must be positive"),
            # Numbers of the wrong type are errors, not truncated or coerced.
            ({"spec": {"family": "chain", "tasks": 6.7}}, "tasks must be an integer, got float"),
            ({"spec": {"family": "chain", "tasks": 6, "seed": 1.9}},
             "seed must be an integer, got float"),
            ({"spec": {"family": "chain", "tasks": 6, "nodes_per_type": 2.5}},
             "nodes_per_type must be an integer, got float"),
            ({"spec": {"family": "chain", "tasks": 6, "deadline_factor": "1.5"}},
             "deadline_factor must be a real number, got str"),
            ({"spec": {"family": "chain", "tasks": 6}, "master_seed": True},
             "master_seed must be an integer, got bool"),
            ({"spec": {"family": "chain", "tasks": 6}, "scheduler": {"window": 2.9}},
             "window must be an integer, got float"),
            ({"spec": {"family": "chain", "tasks": 6}, "scheduler": {"block_size": True}},
             "block_size must be an integer, got bool"),
        ],
    )
    def test_from_dict_rejects_bad_values(self, entry, message):
        with pytest.raises(InvalidJob) as excinfo:
            Job.from_dict(entry)
        assert message in str(excinfo.value)

    def test_from_spec_checks_instance_specs_too(self):
        with pytest.raises(InvalidJob, match="unknown cluster 'huge'"):
            Job.from_spec(InstanceSpec("chain", 6, "huge", "S1", 2.0))
        with pytest.raises(InvalidJob, match="deadline_factor must be >= 1"):
            Job.from_spec(InstanceSpec("chain", 6, "single", "S1", 0.9))

    def test_spec_carries_nodes_per_type_only_when_set(self):
        plain = Job.from_spec(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1))
        assert list(plain.spec) == ["family", "tasks", "cluster", "scenario", "deadline_factor", "seed"]
        sized = Job.from_spec(
            InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1, nodes_per_type=1)
        )
        assert sized.spec["nodes_per_type"] == 1
        assert Job.from_dict(sized.to_dict()) == sized
        assert sized.instance().dag.platform.cluster.num_processors == 6
        assert sized.fingerprint != plain.fingerprint

    def test_from_dict_accepts_the_num_tasks_alias(self):
        job = Job.from_dict({"spec": {"family": "chain", "num_tasks": 6}})
        assert job.spec["tasks"] == 6

    def test_validate_rejects_empty_variants(self, grid_instance):
        job = Job(payload=instance_to_dict(grid_instance), variants=())
        with pytest.raises(InvalidJob, match="at least one"):
            job.validate()

    def test_validate_rejects_unknown_variants(self, grid_instance):
        Job.from_instance(grid_instance).validate()  # all seventeen variants
        job = Job.from_instance(grid_instance, variants=("ASAP", "NOPE"))
        with pytest.raises(UnknownVariant) as excinfo:
            job.validate()
        known = ", ".join(sorted(variant_names()))
        assert str(excinfo.value) == f"unknown algorithm variant 'NOPE'; known: {known}"
        assert excinfo.value.exit_code == 3
        # The structural checks come first.
        with pytest.raises(InvalidJob):
            Job(variants=("NOPE",)).validate()

    def test_dict_round_trip(self, grid_instance):
        job = Job.from_instance(grid_instance, variants=VARIANTS)
        data = job.to_dict()
        assert list(data) == ["instance", "variants", "scheduler"]
        clone = Job.from_dict(data)
        assert clone.fingerprint == job.fingerprint
        assert clone == job
        assert clone.live_instance is None

    def test_spec_job_dict_round_trip_ships_the_spec(self):
        job = Job.from_spec(
            InstanceSpec("chain", 6, "single", "S4", 2.0, seed=2),
            variants=("ASAP",),
            master_seed=7,
        )
        data = job.to_dict()
        assert "spec" in data and "instance" not in data
        assert data["master_seed"] == 7
        clone = Job.from_dict(data)
        assert clone.fingerprint == job.fingerprint


class TestJobFingerprint:
    def test_identical_content_identical_fingerprint(self, grid_instance):
        twin = make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1))
        first = Job.from_instance(grid_instance, variants=VARIANTS)
        second = Job.from_instance(twin, variants=VARIANTS)
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_ignores_instance_labels(self, grid_instance):
        relabelled = ProblemInstance(
            grid_instance.dag,
            grid_instance.profile,
            name="other-label",
            metadata={"note": "different"},
        )
        first = Job.from_instance(grid_instance, variants=VARIANTS)
        second = Job.from_instance(relabelled, variants=VARIANTS)
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_depends_on_variants_and_scheduler(self, grid_instance):
        base = Job.from_instance(grid_instance, variants=("ASAP",))
        other = Job.from_instance(grid_instance, variants=("slack",))
        tuned = Job.from_instance(
            grid_instance, variants=("ASAP",), scheduler=CaWoSched(window=5)
        )
        assert len({base.fingerprint, other.fingerprint, tuned.fingerprint}) == 3

    def test_spec_job_fingerprint_matches_inline_job(self, grid_instance):
        spec_job = Job.from_spec(
            InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1),
            variants=VARIANTS,
        )
        inline_job = Job.from_instance(grid_instance, variants=VARIANTS)
        assert spec_job.fingerprint == inline_job.fingerprint

    def test_fingerprint_hashes_the_canonical_job_body(self, grid_instance):
        payload = instance_to_dict(grid_instance)
        problem = {k: v for k, v in payload.items() if k not in ("name", "metadata")}
        body = {"instance": problem, "variants": list(VARIANTS), "scheduler": {"window": 5}}
        expected = hashlib.sha256(canonical_json(body).encode("utf8")).hexdigest()
        assert job_fingerprint(payload, VARIANTS, {"window": 5}) == expected

    def test_module_level_helper_matches_property(self, grid_instance):
        job = Job.from_instance(grid_instance, variants=VARIANTS)
        assert job.fingerprint == job_fingerprint(
            job.payload, job.variants, job.scheduler
        )

