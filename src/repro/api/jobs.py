"""Typed jobs: the one unit of work every entry point submits.

A :class:`Job` is self-contained plain data describing *what* to schedule —
a problem instance (inline wire payload, live object, or a grid-cell spec
materialised on demand), the algorithm variants to run and the scheduler
configuration.  Being plain data it can be read from a JSON batch file,
shipped to a worker process, and — crucially — content-hashed:
:attr:`Job.fingerprint` is *the* canonical cache and deduplication key of
the whole system.

The fingerprint is deliberately normalised: the instance's ``name`` and
``metadata`` are stripped before hashing, because the produced schedule
depends only on the DAG, the mapping and the power profile.  Two jobs for
identically-shaped problems therefore dedupe regardless of how their
instances are labelled, and regardless of which path (batch submission or
single-variant :meth:`~repro.api.client.Client.solve`) they enter through.

A :class:`JobResult` pairs the fingerprint with the produced records (one
flat :class:`~repro.experiments.runner.RunRecord` per variant) and — when
the job ran in the client's own process — the full
:class:`~repro.core.scheduler.ScheduleResult` objects including the
schedules themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.api.errors import BackendFailure, InvalidJob, UnknownVariant
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.core.variants import ALL_VARIANTS, variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.io.records import RunRecord
from repro.io.wire import _graph_payload, _instance_payload, canonical_json
from repro.io.wire import instance_from_dict, instance_to_dict
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.schedule.instance import ProblemInstance
from repro.utils.validation import check_in_range, check_non_negative_int, check_positive_int

__all__ = [
    "Job",
    "JobResult",
    "check_variant",
    "job_fingerprint",
    "shared_instance_payload",
]

#: Keys of a normalised grid-cell spec (see :class:`repro.experiments.instances.InstanceSpec`).
_SPEC_KEYS = ("family", "tasks", "cluster", "scenario", "deadline_factor", "seed")
#: Keys a raw spec may carry: the normalised ones, the optional
#: ``nodes_per_type`` and the ``num_tasks`` alias.
_RAW_SPEC_KEYS = _SPEC_KEYS + ("nodes_per_type", "num_tasks")
#: Keys of a job object (see :meth:`Job.from_dict`).
_JOB_KEYS = ("instance", "spec", "variants", "scheduler", "master_seed")
#: Keys of a scheduler configuration (see :meth:`CaWoSched.config_dict`).
_SCHEDULER_KEYS = ("block_size", "window")


def shared_instance_payload(instance: ProblemInstance) -> Dict[str, object]:
    """Return *instance* as a wire payload, built once per live instance.

    Every job built from the same instance shares the returned dict, and
    :attr:`Job.fingerprint` memoises the instance's canonical text the same
    way, so resubmitting an instance pays for neither again.  The payload's
    ``mapping`` and ``links`` (and their canonical text) are built once per
    DAG and shared by every instance over it.  Treat the dict as read-only
    and copy before mutating.
    """
    return instance._memoised(
        "wire_payload", lambda: _instance_payload(_graph_part(instance.dag), instance)
    )


def _graph_part(dag: EnhancedDAG) -> Dict[str, object]:
    """Return the ``mapping`` and ``links`` of every payload over *dag* (built once)."""
    return dag._memoised("wire_graph", lambda: _graph_payload(dag))


def _problem_text(problem: Mapping[str, object]) -> str:
    """Return the canonical JSON of an instance payload without its labels."""
    problem = dict(problem)
    problem.pop("name", None)
    problem.pop("metadata", None)
    return canonical_json(problem)


def _live_problem_text(dag: EnhancedDAG, profile: Mapping[str, object]) -> str:
    """Return :func:`_problem_text` of a shared payload over *dag* with *profile*.

    Canonical keys sort ``links`` < ``mapping`` < ``profile``, so the text is
    the DAG's canonical ``{"links", "mapping"}`` text, encoded once per DAG,
    with the profile spliced in as its last member.
    """
    graph_text = dag._memoised("wire_graph_text", lambda: _graph_text(dag))
    return f'{graph_text[:-1]},"profile":{canonical_json(profile)}}}'


def _graph_text(dag: EnhancedDAG) -> str:
    """Return ``canonical_json(_graph_part(dag))``, joined from its members' texts.

    The cluster's text is encoded once per cluster, shared by every mapping onto it.
    """
    graph = _graph_part(dag)
    mapping = graph["mapping"]
    cluster = dag.mapping.cluster
    cluster_text = cluster._memoised("canonical_text", lambda: canonical_json(cluster.to_dict()))
    return (
        f'{{"links":{canonical_json(graph["links"])},'
        f'"mapping":{{"assignment":{canonical_json(mapping["assignment"])},'
        f'"cluster":{cluster_text},'
        f'"communication_order":{canonical_json(mapping["communication_order"])},'
        f'"processor_order":{canonical_json(mapping["processor_order"])},'
        f'"workflow":{canonical_json(mapping["workflow"])}}}}}'
    )


def _fingerprint(
    problem_text: str, variants: Sequence[str], scheduler: Optional[Mapping[str, object]]
) -> str:
    # The canonical JSON of {"instance", "scheduler", "variants"}: sorted keys,
    # compact separators, the instance already canonical.  "instance" sorts
    # first, so the other two keys' canonical object is spliced in after it.
    rest = canonical_json(
        {"scheduler": dict(scheduler or {}), "variants": [str(v) for v in variants]}
    )
    body = f'{{"instance":{problem_text},{rest[1:]}'
    return hashlib.sha256(body.encode("utf8")).hexdigest()


def job_fingerprint(
    problem: Mapping[str, object],
    variants: Sequence[str],
    scheduler: Optional[Mapping[str, object]] = None,
) -> str:
    """Return the canonical content-hash of a job.

    SHA-256 over the canonical JSON of ``(problem content, variants,
    scheduler configuration)``.  The instance payload's ``name`` and
    ``metadata`` labels are stripped first: the schedule depends only on
    the problem content, so identically-shaped problems share a fingerprint
    no matter how they are labelled.  Every submission path — batch
    requests, ``solve``, the wire protocol — hashes through this one
    function.
    """
    return _fingerprint(_problem_text(problem), variants, scheduler)


def check_variant(name: str) -> None:
    """Raise :class:`UnknownVariant` unless *name* is one of the paper's variants.

    The known names are the seventeen of
    :data:`~repro.core.variants.ALL_VARIANTS` (ASAP + 8 greedy + 8 ``-LS``).
    """
    if name not in ALL_VARIANTS:
        known = ", ".join(sorted(ALL_VARIANTS))
        raise UnknownVariant(f"unknown algorithm variant {name!r}; known: {known}")


def _reject_unknown_keys(what: str, data: Mapping[str, object], known: Sequence[str]) -> None:
    """Raise :class:`InvalidJob` naming the first key of *data* not in *known*."""
    for key in data:
        if key not in known:
            raise InvalidJob(f"unknown {what} field {key!r}; known: {', '.join(known)}")


def _normalise_spec(spec_data: Mapping[str, object]) -> Dict[str, object]:
    """Check a raw spec mapping and return it on the canonical spec keys (eagerly).

    Validation is eager: unknown keys, malformed values and everything
    :meth:`InstanceSpec.validate` rejects fail at job construction time.
    Numbers are checked, not converted, so ``"tasks": 6.7`` or ``"seed":
    true`` fails instead of naming another cell.  Materialisation is lazy
    (the workflow is only generated when the instance is actually needed —
    possibly inside a worker process).  ``nodes_per_type`` is kept only when
    it is set.
    """
    try:
        spec_data = dict(spec_data)
        _reject_unknown_keys("job spec", spec_data, _RAW_SPEC_KEYS)
        tasks = spec_data.get("tasks", spec_data.get("num_tasks"))
        factor = spec_data.get("deadline_factor", 2.0)
        spec: Dict[str, object] = {
            "family": str(spec_data["family"]),
            "tasks": check_positive_int(tasks, "tasks"),
            "cluster": str(spec_data.get("cluster", "small")),
            "scenario": str(spec_data.get("scenario", "S1")),
            "deadline_factor": check_in_range(factor, "deadline_factor"),
            "seed": check_non_negative_int(spec_data.get("seed", 0), "seed"),
        }
        nodes = spec_data.get("nodes_per_type")
        if nodes is not None:
            spec["nodes_per_type"] = check_positive_int(nodes, "nodes_per_type")
        _instance_spec(spec).validate()
        return spec
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidJob(f"malformed job spec {spec_data!r}: {exc}") from exc


def _instance_spec(spec: Mapping[str, object]) -> InstanceSpec:
    """Return the :class:`InstanceSpec` of a normalised spec mapping."""
    return InstanceSpec(
        family=str(spec["family"]),
        num_tasks=int(spec["tasks"]),
        cluster=str(spec["cluster"]),
        scenario=str(spec["scenario"]),
        deadline_factor=float(spec["deadline_factor"]),
        seed=int(spec["seed"]),
        nodes_per_type=spec.get("nodes_per_type"),
    )


def _master_seed(value: object) -> Optional[int]:
    """Return a job's master seed: ``None`` or a non-negative integer."""
    return None if value is None else check_non_negative_int(value, "master_seed")


def _variant_list(value: object) -> Tuple[str, ...]:
    """Return a job's ``variants`` field as names (all seventeen when empty)."""
    if isinstance(value, str):
        raise TypeError("variants must be a list of names, not a string")
    return tuple(str(v) for v in value) if value else tuple(variant_names())


def _job_field(key: str, value: object, convert):
    """Return ``convert(value)`` for job field *key*, failing as an :class:`InvalidJob`."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidJob(f"malformed job field {key!r}: {value!r} ({exc})") from exc


@dataclass(frozen=True)
class Job:
    """One self-contained scheduling job.

    Exactly one of *payload* (an inline wire-format instance) and *spec*
    (a grid-cell description materialised deterministically on demand) must
    be set.  Build jobs through the classmethods rather than the raw
    constructor.

    Attributes
    ----------
    payload:
        The problem instance as a wire payload
        (:func:`repro.io.wire.instance_to_dict` output), or ``None`` for
        spec-defined jobs.
    spec:
        Normalised grid-cell spec (keys ``family``, ``tasks``, ``cluster``,
        ``scenario``, ``deadline_factor``, ``seed``, and ``nodes_per_type``
        when set), or ``None`` for payload-defined jobs.
    variants:
        The algorithm variants to run, in order.
    scheduler:
        The scheduler configuration
        (:meth:`repro.core.scheduler.CaWoSched.config_dict` output).
    master_seed:
        Master seed combined with a spec's coordinates at materialisation
        (spec-defined jobs only).
    """

    payload: Optional[Dict[str, object]] = None
    spec: Optional[Dict[str, object]] = None
    variants: Tuple[str, ...] = ()
    scheduler: Dict[str, object] = field(default_factory=dict)
    master_seed: Optional[int] = None
    #: Optional live instance matching *payload*, kept so in-process
    #: execution can skip the deserialisation round trip.  Not part of the
    #: job's identity (fingerprint), equality or serialised form.
    live_instance: Optional[ProblemInstance] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        *,
        variants: Optional[Sequence[str]] = None,
        scheduler: Optional[CaWoSched] = None,
    ) -> "Job":
        """Build a job from a live problem instance.

        *variants* defaults to all built-in algorithm variants; *scheduler*
        defaults to the paper's parameters.
        """
        scheduler = scheduler or CaWoSched()
        names = tuple(variants) if variants is not None else tuple(variant_names())
        return cls(
            payload=shared_instance_payload(instance),
            variants=names,
            scheduler=scheduler.config_dict(),
            live_instance=instance,
        )

    @classmethod
    def from_spec(
        cls,
        spec: object,
        *,
        variants: Optional[Sequence[str]] = None,
        scheduler: Optional[CaWoSched] = None,
        master_seed: Optional[int] = None,
    ) -> "Job":
        """Build a job from a grid-cell spec (lazy materialisation).

        *spec* is an :class:`~repro.experiments.instances.InstanceSpec` or a
        mapping with its keys.  The spec is validated eagerly but the
        instance is only generated when needed — for spec jobs shipped to a
        worker pool, that is inside the worker.
        """
        if isinstance(spec, InstanceSpec):
            spec = asdict(spec)
        elif not isinstance(spec, Mapping):
            raise InvalidJob(
                f"job spec must be an InstanceSpec or a mapping, got {type(spec).__name__}"
            )
        spec_data = _normalise_spec(spec)
        scheduler = scheduler or CaWoSched()
        names = tuple(variants) if variants is not None else tuple(variant_names())
        return cls(
            spec=spec_data,
            variants=names,
            scheduler=scheduler.config_dict(),
            master_seed=_job_field("master_seed", master_seed, _master_seed),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Job":
        """Build a job from plain data (e.g. one entry of a batch file).

        Accepts either an inline ``"instance"`` wire payload or a
        ``"spec"`` grid-cell description, plus optional ``"variants"``,
        ``"scheduler"`` and ``"master_seed"``.

        Raises
        ------
        InvalidJob
            If *data* is not a mapping, neither (or both) instance sources
            are present, any field has the wrong type, or the job, its spec
            or its scheduler configuration carries an unknown key.
        """
        if not isinstance(data, Mapping):
            raise InvalidJob(f"a job must be a JSON object, got {data!r}")
        _reject_unknown_keys("job", data, _JOB_KEYS)
        has_instance = "instance" in data
        has_spec = "spec" in data
        if has_instance == has_spec:
            raise InvalidJob(
                "a job needs either an 'instance' payload or a 'spec' (exactly one)"
            )
        payload = _job_field("instance", data["instance"], dict) if has_instance else None
        spec = _normalise_spec(data["spec"]) if has_spec else None
        names = _job_field("variants", data.get("variants"), _variant_list)
        config = data.get("scheduler")
        if isinstance(config, Mapping):
            _reject_unknown_keys("scheduler", config, _SCHEDULER_KEYS)
        try:
            scheduler = CaWoSched.from_config(config)
        except (TypeError, ValueError) as exc:
            raise InvalidJob(f"malformed scheduler config {config!r}: {exc}") from exc
        return cls(
            payload=payload,
            spec=spec,
            variants=names,
            scheduler=scheduler.config_dict(),
            master_seed=_job_field("master_seed", data.get("master_seed"), _master_seed),
        )

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the job's structure, then its variant names.

        Raises
        ------
        InvalidJob
            If the job names neither (or both of) a payload and a spec, or
            the variant list is empty.
        UnknownVariant
            If a variant is not one of the paper's variants (see
            :func:`check_variant`).
        """
        if (self.payload is None) == (self.spec is None):
            raise InvalidJob(
                "a job needs either an 'instance' payload or a 'spec' (exactly one)"
            )
        if not self.variants:
            raise InvalidJob("a job needs at least one algorithm variant")
        for name in self.variants:
            check_variant(name)

    def instance(self) -> ProblemInstance:
        """Return the job's problem instance, materialising it if needed.

        Payload-defined jobs rebuild through the (exact) wire round trip;
        spec-defined jobs are generated deterministically from the spec and
        the master seed.  The materialised instance is cached on the job.
        """
        if self.live_instance is not None:
            return self.live_instance
        cached = getattr(self, "_instance", None)
        if cached is not None:
            return cached
        if self.payload is not None:
            built = instance_from_dict(self.payload)
        else:
            built = make_instance(_instance_spec(self.spec), master_seed=self.master_seed)
        object.__setattr__(self, "_instance", built)
        return built

    def problem_payload(self) -> Dict[str, object]:
        """Return the instance as a wire payload (materialising spec jobs)."""
        if self.payload is not None:
            return dict(self.payload)
        return instance_to_dict(self.instance())

    @property
    def fingerprint(self) -> str:
        """Canonical content-hash identity of the job (cached).

        See :func:`job_fingerprint` for the normalisation rules.  Spec jobs
        are materialised on first access so that spec-defined and
        payload-defined jobs for the same problem share a fingerprint.  Jobs
        built from one live instance share its canonical problem text, which
        splices the profile into the text its DAG's instances share.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            live = self.live_instance
            if live is not None and self.payload is shared_instance_payload(live):
                text = live._memoised(
                    "problem_text", lambda: _live_problem_text(live.dag, self.payload["profile"])
                )
            else:
                text = _problem_text(self.problem_payload())
            cached = _fingerprint(text, self.variants, self.scheduler)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def to_dict(self) -> Dict[str, object]:
        """Return the job as plain data (inverse of :meth:`from_dict`).

        Spec-defined jobs serialise their spec (so workers materialise),
        payload-defined jobs their payload.
        """
        data: Dict[str, object] = {}
        if self.payload is not None:
            data["instance"] = dict(self.payload)
        else:
            data["spec"] = dict(self.spec)
            if self.master_seed is not None:
                data["master_seed"] = self.master_seed
        data["variants"] = list(self.variants)
        data["scheduler"] = dict(self.scheduler)
        return data


@dataclass(frozen=True)
class JobResult:
    """The facade's answer to one job.

    Attributes
    ----------
    fingerprint:
        The job's canonical fingerprint (cache key).
    variants:
        The variants that were run, in job order.
    records:
        One flat :class:`RunRecord` per variant, in job order.
    cached:
        Whether the records were served from the result cache rather than
        computed for this submission.
    backend:
        Where the entry was computed: ``"inline"`` (the client's own
        process) or ``"process"`` (a worker pool).
    results:
        The full per-variant :class:`ScheduleResult` objects (including the
        schedules), when the entry was computed inline; ``None`` when only
        flat records crossed a process boundary.  Not part of
        equality or the serialised form.
    """

    fingerprint: str
    variants: Tuple[str, ...]
    records: Tuple[RunRecord, ...]
    cached: bool = False
    backend: str = "inline"
    results: Optional[Tuple[ScheduleResult, ...]] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------ #
    def result(self, variant: Optional[str] = None) -> ScheduleResult:
        """Return the full :class:`ScheduleResult` for *variant*.

        Defaults to the job's only variant.  Raises
        :class:`BackendFailure` when the entry came from the process pool,
        which ships flat records only.
        """
        if self.results is None:
            raise BackendFailure(
                f"backend {self.backend!r} returned flat records only; "
                "submit through Client(jobs=1) for full schedule results"
            )
        if variant is None:
            if len(self.variants) != 1:
                raise ValueError(
                    f"job ran {len(self.variants)} variants; pass variant= explicitly"
                )
            return self.results[0]
        try:
            return self.results[self.variants.index(variant)]
        except ValueError:
            raise ValueError(
                f"variant {variant!r} was not part of this job: {self.variants}"
            ) from None

    def as_cached(self) -> "JobResult":
        """Return this result flagged as served-from-cache."""
        if self.cached:
            return self
        return replace(self, cached=True, results=self.results)

    def to_dict(self) -> Dict[str, object]:
        """Return the result as plain data (schedules are not included)."""
        return {
            "fingerprint": self.fingerprint,
            "variants": list(self.variants),
            "cached": self.cached,
            "backend": self.backend,
            "records": [record.to_dict() for record in self.records],
        }
