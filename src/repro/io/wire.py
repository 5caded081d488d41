"""Versioned JSON wire format for instances, run records and simulation reports.

This module is the serialisation boundary of the library.  The leaf value
types carry their own ``to_dict``/``from_dict``
(:class:`~repro.workflow.dag.Workflow`,
:class:`~repro.platform_.processor.ProcessorSpec`,
:class:`~repro.platform_.cluster.Cluster`,
:class:`~repro.carbon.intervals.PowerProfile`,
:class:`~repro.mapping.mapping.Mapping`); this module composes them into
the problem-instance payload that crosses process and machine boundaries
and wraps the documents the CLI writes in a versioned envelope::

    {"format": "cawosched-wire", "version": 1, "kind": "instance", "payload": {...}}

There are three kinds: ``"instance"`` (a
:class:`~repro.schedule.instance.ProblemInstance`), ``"records"`` (a list of
:class:`~repro.io.records.RunRecord`) and ``"sim-report"`` (a
:class:`~repro.sim.report.SimReport`).

Reconstruction is exact: a deserialised :class:`ProblemInstance` has the same
node durations, processor powers, orderings and power profile as the
original, so scheduling it yields the same carbon cost.  The link processors
of the extended platform (whose powers are drawn randomly at construction
time) are serialised verbatim and the communication-enhanced DAG is rebuilt
deterministically around them via ``build_enhanced_dag(..., platform=...)``.

The job fingerprint of :mod:`repro.api` hashes the :func:`canonical_json`
form of an instance payload (with the instance labels stripped) to
deduplicate jobs and key the client's result cache.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping as TMapping, Optional, Union

from repro.carbon.intervals import PowerProfile
from repro.io.records import RunRecord
from repro.mapping.enhanced_dag import EnhancedDAG, build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import ExtendedPlatform
from repro.platform_.processor import ProcessorSpec
from repro.schedule.instance import ProblemInstance
from repro.utils.errors import WireFormatError

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "envelope",
    "open_envelope",
    "canonical_json",
    "instance_to_dict",
    "instance_from_dict",
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
    return _CANONICAL_ENCODER.encode(payload)


#: The encoder :func:`json.dumps` would build for every call of
#: :func:`canonical_json`, built once.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
    return _instance_payload(_graph_payload(instance.dag), instance)


def _graph_payload(dag: EnhancedDAG) -> Dict[str, object]:
    """Return the part of an instance payload that depends on *dag* alone."""
    return {
        "mapping": dag.mapping.to_dict(),
        "links": [spec.to_dict() for spec in dag.platform.links()],
    }


def _instance_payload(graph: TMapping[str, object], instance: ProblemInstance) -> Dict[str, object]:
    """Return the payload of *instance* around *graph* (:func:`_graph_payload` output)."""
    return {
        **graph,
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


def _records_from_payload(payload: object) -> List[RunRecord]:
    """Rebuild run records from a ``records`` payload (a list of record objects)."""
    if not isinstance(payload, list):
        raise WireFormatError(
            f"records payload must be a list, got {type(payload).__name__}"
        )
    records = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise WireFormatError(
                f"record {index} must be an object, got {type(entry).__name__}"
            )
        try:
            records.append(RunRecord.from_dict(entry))
        except KeyError as exc:
            raise WireFormatError(f"record {index} is missing field {exc}") from exc
        except ValueError as exc:
            raise WireFormatError(f"malformed record {index}: {exc}") from exc
    return records


# ---------------------------------------------------------------------- #
# Text / file round trips
# ---------------------------------------------------------------------- #
def _sim_report_from_dict(payload: TMapping[str, object]):
    # Deferred import: repro.sim sits above this module in the layering (its
    # engine schedules through the client facade, which serialises through
    # here), so importing it at module load time would be circular.
    from repro.sim.report import SimReport

    return SimReport.from_dict(payload)


_KIND_SERIALISERS = {
    "instance": instance_to_dict,
    "records": lambda records: [record.to_dict() for record in records],
    "sim-report": lambda report: report.to_dict(),
}

_KIND_DESERIALISERS = {
    "instance": instance_from_dict,
    "records": _records_from_payload,
    "sim-report": _sim_report_from_dict,
}


def dumps(kind: str, obj: object, *, indent: Optional[int] = 2) -> str:
    """Serialise *obj* of the given *kind* to enveloped JSON text.

    Supported kinds: ``"instance"`` (a :class:`ProblemInstance`),
    ``"records"`` (an iterable of :class:`RunRecord`) and ``"sim-report"``
    (a :class:`~repro.sim.report.SimReport`).
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
