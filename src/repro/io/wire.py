"""Versioned JSON wire format for instances, schedules and results.

This module is the serialisation boundary of the library: everything a
scheduling request or response consists of — workflows, clusters, power
profiles, mappings, problem instances, schedules, scheduler results and
experiment records — can be turned into plain JSON-compatible dictionaries
and back.  The leaf value types carry their own ``to_dict``/``from_dict``
(:class:`~repro.workflow.task.Task`, :class:`~repro.workflow.dag.Workflow`,
:class:`~repro.platform_.processor.ProcessorSpec`,
:class:`~repro.platform_.cluster.Cluster`,
:class:`~repro.carbon.intervals.PowerProfile`,
:class:`~repro.mapping.mapping.Mapping`,
:class:`~repro.schedule.schedule.Schedule`); this module composes them into
the payloads that cross process and machine boundaries and wraps them in a
versioned envelope::

    {"format": "cawosched-wire", "version": 1, "kind": "instance", "payload": {...}}

Reconstruction is exact: a deserialised :class:`ProblemInstance` has the same
node durations, processor powers, orderings and power profile as the
original, so scheduling it yields the same carbon cost.  The link processors
of the extended platform (whose powers are drawn randomly at construction
time) are serialised verbatim and the communication-enhanced DAG is rebuilt
deterministically around them via ``build_enhanced_dag(..., platform=...)``.

:func:`instance_fingerprint` hashes the canonical JSON form of an instance
payload; the job fingerprint of :mod:`repro.api` hashes the same canonical
form (with the instance labels stripped) to deduplicate jobs and key the
client's result cache.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping as TMapping, Optional, Union

from repro.carbon.intervals import PowerProfile
from repro.core.scheduler import ScheduleResult
from repro.experiments.runner import RunRecord
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import ExtendedPlatform
from repro.platform_.processor import ProcessorSpec
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import WireFormatError

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "envelope",
    "open_envelope",
    "canonical_json",
    "instance_to_dict",
    "instance_from_dict",
    "instance_fingerprint",
    "schedule_to_dict",
    "schedule_from_dict",
    "result_to_dict",
    "result_from_dict",
    "records_to_dict",
    "records_from_dict",
    "sim_report_to_dict",
    "sim_report_from_dict",
    "job_to_dict",
    "job_from_dict",
    "job_result_to_dict",
    "job_result_from_dict",
    "error_to_dict",
    "dumps",
    "loads",
    "save",
    "save_payload",
    "load",
    "save_instance",
    "load_instance",
    "save_records",
    "load_records",
    "save_sim_report",
    "load_sim_report",
]

#: Identifier of the wire format (the envelope's ``format`` field).
WIRE_FORMAT = "cawosched-wire"
#: Current wire format version.  Bump on incompatible payload changes.
WIRE_VERSION = 1


# ---------------------------------------------------------------------- #
# Envelope
# ---------------------------------------------------------------------- #
def envelope(kind: str, payload: object) -> Dict[str, object]:
    """Wrap *payload* in the versioned wire envelope."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "kind": str(kind),
        "payload": payload,
    }


def open_envelope(data: TMapping[str, object], kind: Optional[str] = None) -> object:
    """Validate an envelope and return its payload.

    Parameters
    ----------
    data:
        A dictionary as produced by :func:`envelope`.
    kind:
        If given, the envelope's ``kind`` must match exactly.

    Raises
    ------
    WireFormatError
        If the envelope is missing, declares a different format or an
        unsupported version, or carries an unexpected kind.
    """
    if not isinstance(data, dict):
        raise WireFormatError(f"expected an envelope object, got {type(data).__name__}")
    if data.get("format") != WIRE_FORMAT:
        raise WireFormatError(
            f"unknown wire format {data.get('format')!r} (expected {WIRE_FORMAT!r})"
        )
    version = data.get("version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version!r} (this library reads version {WIRE_VERSION})"
        )
    if kind is not None and data.get("kind") != kind:
        raise WireFormatError(
            f"expected payload kind {kind!r}, got {data.get('kind')!r}"
        )
    if "payload" not in data:
        raise WireFormatError("envelope has no payload")
    return data["payload"]


def canonical_json(payload: object) -> str:
    """Serialise *payload* to canonical (sorted, compact) JSON text.

    Canonicalisation makes the text — and therefore any hash of it — depend
    only on content, not on dictionary insertion order.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


# ---------------------------------------------------------------------- #
# Problem instances
# ---------------------------------------------------------------------- #
def instance_to_dict(instance: ProblemInstance) -> Dict[str, object]:
    """Serialise a problem instance into a JSON-compatible payload.

    The payload carries the mapping (workflow + cluster + assignment +
    orderings), the link processors of the extended platform, the power
    profile, the instance name and its metadata.  The communication-enhanced
    DAG itself is not stored: given the mapping and the exact link
    processors, its reconstruction is deterministic.
    """
    dag = instance.dag
    return {
        "mapping": dag.mapping.to_dict(),
        "links": [spec.to_dict() for spec in dag.platform.links()],
        "profile": instance.profile.to_dict(),
        "name": instance.name,
        "metadata": dict(instance.metadata),
    }


def instance_from_dict(payload: TMapping[str, object]) -> ProblemInstance:
    """Rebuild a problem instance from :func:`instance_to_dict` output."""
    try:
        mapping = Mapping.from_dict(payload["mapping"])
        links = [ProcessorSpec.from_dict(entry) for entry in payload.get("links", [])]
        profile = PowerProfile.from_dict(payload["profile"])
        metadata = dict(payload.get("metadata", {}))
    except KeyError as exc:
        raise WireFormatError(f"instance payload is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        # Coercions inside the nested from_dicts (int()/float()/range checks)
        # raise bare ValueError/TypeError on malformed values; surface them
        # uniformly as a wire error.
        raise WireFormatError(f"malformed instance payload: {exc}") from exc
    platform = ExtendedPlatform(mapping.cluster, links)
    dag = build_enhanced_dag(mapping, platform=platform)
    return ProblemInstance(
        dag,
        profile,
        name=str(payload.get("name", "instance")),
        metadata=metadata,
    )


def instance_fingerprint(
    instance: Union[ProblemInstance, TMapping[str, object]],
) -> str:
    """Return the content-hash fingerprint of an instance (or its payload).

    Two instances with identical content — same workflow, cluster, mapping,
    link processors, profile, name and metadata — have the same fingerprint
    regardless of how or where they were constructed.  The fingerprint is the
    SHA-256 of the canonical JSON form of the instance payload.
    """
    if isinstance(instance, ProblemInstance):
        payload = instance_to_dict(instance)
    else:
        payload = dict(instance)
    digest = hashlib.sha256(canonical_json(payload).encode("utf8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Schedules and results
# ---------------------------------------------------------------------- #
def schedule_to_dict(
    schedule: Schedule, *, include_instance: bool = False
) -> Dict[str, object]:
    """Serialise a schedule (optionally bundling its instance)."""
    payload = schedule.to_dict()
    if include_instance:
        payload["instance"] = instance_to_dict(schedule.instance)
    return payload


def schedule_from_dict(
    payload: TMapping[str, object], instance: Optional[ProblemInstance] = None
) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Pass *instance* when the payload does not embed one; a payload with an
    embedded instance wins over the argument.
    """
    if "instance" in payload:
        instance = instance_from_dict(payload["instance"])
    if instance is None:
        raise WireFormatError(
            "schedule payload has no embedded instance; pass instance= explicitly"
        )
    return Schedule.from_dict(payload, instance)


def result_to_dict(
    result: ScheduleResult, *, include_instance: bool = False
) -> Dict[str, object]:
    """Serialise a :class:`ScheduleResult` (optionally bundling the instance)."""
    return {
        "variant": result.variant,
        "carbon_cost": result.carbon_cost,
        "runtime_seconds": result.runtime_seconds,
        "makespan": result.makespan,
        "schedule": schedule_to_dict(result.schedule, include_instance=include_instance),
    }


def result_from_dict(
    payload: TMapping[str, object], instance: Optional[ProblemInstance] = None
) -> ScheduleResult:
    """Rebuild a :class:`ScheduleResult` from :func:`result_to_dict` output."""
    schedule = schedule_from_dict(payload["schedule"], instance)
    return ScheduleResult(
        variant=str(payload["variant"]),
        schedule=schedule,
        carbon_cost=int(payload["carbon_cost"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        makespan=int(payload["makespan"]),
    )


# ---------------------------------------------------------------------- #
# Experiment records
# ---------------------------------------------------------------------- #
def records_to_dict(records: Iterable[RunRecord]) -> List[Dict[str, object]]:
    """Serialise a list of run records."""
    return [record.to_dict() for record in records]


def records_from_dict(payload: Iterable[TMapping[str, object]]) -> List[RunRecord]:
    """Rebuild a list of run records."""
    return [RunRecord.from_dict(entry) for entry in payload]


# ---------------------------------------------------------------------- #
# Simulation reports
# ---------------------------------------------------------------------- #
def sim_report_to_dict(report) -> Dict[str, object]:
    """Serialise a :class:`repro.sim.report.SimReport` (delegates to ``to_dict``)."""
    return report.to_dict()


def sim_report_from_dict(payload: TMapping[str, object]):
    """Rebuild a :class:`repro.sim.report.SimReport` from its payload.

    The import is deferred: :mod:`repro.sim` sits above this module in the
    layering (its engine schedules through the client facade, which
    serialises through here), so importing it at module load time would be circular.
    """
    from repro.sim.report import SimReport

    return SimReport.from_dict(payload)


# ---------------------------------------------------------------------- #
# Jobs and job results (the repro.api facade)
# ---------------------------------------------------------------------- #
def job_to_dict(job) -> Dict[str, object]:
    """Serialise a :class:`repro.api.jobs.Job` (delegates to ``to_dict``)."""
    return job.to_dict()


def job_from_dict(payload: TMapping[str, object]):
    """Rebuild a :class:`repro.api.jobs.Job` from its payload.

    The import is deferred: :mod:`repro.api` composes this module's
    helpers, so importing it at module load time would be circular.
    """
    from repro.api.jobs import Job

    return Job.from_dict(payload)


def job_result_to_dict(result) -> Dict[str, object]:
    """Serialise a :class:`repro.api.jobs.JobResult` (delegates to ``to_dict``)."""
    return result.to_dict()


def job_result_from_dict(payload: TMapping[str, object]):
    """Rebuild a :class:`repro.api.jobs.JobResult` from its payload."""
    from repro.api.jobs import JobResult

    return JobResult.from_dict(payload)


def error_to_dict(exc: BaseException) -> Dict[str, object]:
    """Serialise an exception into the wire ``"error"`` payload.

    Delegates to :func:`repro.api.errors.error_payload`, which maps the
    facade's structured taxonomy onto stable codes and exit codes.
    """
    from repro.api.errors import error_payload

    return error_payload(exc)


# ---------------------------------------------------------------------- #
# Text / file round trips
# ---------------------------------------------------------------------- #
_KIND_SERIALISERS = {
    "instance": instance_to_dict,
    "records": records_to_dict,
    "sim-report": sim_report_to_dict,
    "job": job_to_dict,
    "job-result": job_result_to_dict,
    "error": error_to_dict,
}

_KIND_DESERIALISERS = {
    "instance": instance_from_dict,
    "records": records_from_dict,
    "sim-report": sim_report_from_dict,
    "job": job_from_dict,
    "job-result": job_result_from_dict,
    # An error document's payload is already plain data.
    "error": dict,
}


def dumps(kind: str, obj: object, *, indent: Optional[int] = 2) -> str:
    """Serialise *obj* of the given *kind* to enveloped JSON text.

    Supported kinds: ``"instance"`` (a :class:`ProblemInstance`),
    ``"records"`` (an iterable of :class:`RunRecord`), ``"sim-report"`` (a
    :class:`~repro.sim.report.SimReport`), ``"job"`` (a
    :class:`~repro.api.jobs.Job`), ``"job-result"`` (a
    :class:`~repro.api.jobs.JobResult`) and ``"error"`` (an exception,
    rendered by :func:`error_to_dict`).
    """
    try:
        serialise = _KIND_SERIALISERS[kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_SERIALISERS))
        raise WireFormatError(f"unknown kind {kind!r}; known: {known}") from None
    return json.dumps(envelope(kind, serialise(obj)), indent=indent, ensure_ascii=False)


def loads(text: str, kind: Optional[str] = None) -> object:
    """Deserialise enveloped JSON text back into the object it describes.

    If *kind* is given, the envelope must carry exactly that kind; otherwise
    the envelope's own kind is used for dispatch.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"not valid JSON: {exc}") from exc
    payload = open_envelope(data, kind)
    actual_kind = data.get("kind")
    try:
        deserialise = _KIND_DESERIALISERS[actual_kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_DESERIALISERS))
        raise WireFormatError(f"unknown kind {actual_kind!r}; known: {known}") from None
    return deserialise(payload)


def save(kind: str, obj: object, path: Union[str, Path]) -> None:
    """Write *obj* of the given *kind* to *path* as enveloped JSON."""
    Path(path).write_text(dumps(kind, obj) + "\n", encoding="utf8")


def save_payload(kind: str, payload: object, path: Union[str, Path]) -> None:
    """Write an already-serialised *payload* to *path* as enveloped JSON.

    For document kinds without a registered serialiser (e.g. the CLI's batch
    ``"responses"``); keeps every wire file on the same envelope, indentation
    and newline conventions.
    """
    document = json.dumps(envelope(kind, payload), indent=2, ensure_ascii=False)
    Path(path).write_text(document + "\n", encoding="utf8")


def load(path: Union[str, Path], kind: Optional[str] = None) -> object:
    """Read an enveloped JSON file back into the object it describes."""
    return loads(Path(path).read_text(encoding="utf8"), kind)


def save_instance(instance: ProblemInstance, path: Union[str, Path]) -> None:
    """Write a problem instance to *path* as enveloped JSON."""
    save("instance", instance, path)


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    """Read a problem instance from an enveloped JSON file."""
    return load(path, "instance")


def save_records(records: Iterable[RunRecord], path: Union[str, Path]) -> None:
    """Write run records to *path* as enveloped JSON."""
    save("records", list(records), path)


def load_records(path: Union[str, Path]) -> List[RunRecord]:
    """Read run records from an enveloped JSON file."""
    return load(path, "records")


def save_sim_report(report, path: Union[str, Path]) -> None:
    """Write a simulation report to *path* as enveloped JSON."""
    save("sim-report", report, path)


def load_sim_report(path: Union[str, Path]):
    """Read a simulation report from an enveloped JSON file."""
    return load(path, "sim-report")
