"""Serialisation boundary: the versioned JSON wire format.

Public surface (see :mod:`repro.io.wire` for the full documentation):

* the envelope (:func:`~repro.io.wire.envelope`,
  :func:`~repro.io.wire.open_envelope`, :data:`~repro.io.wire.WIRE_VERSION`),
* instance payloads (:func:`~repro.io.wire.instance_to_dict`,
  :func:`~repro.io.wire.instance_from_dict`,
  :func:`~repro.io.wire.instance_fingerprint`),
* schedule / result payloads (:func:`~repro.io.wire.schedule_to_dict`,
  :func:`~repro.io.wire.result_to_dict`, and their ``from_dict`` inverses),
* record payloads and file round trips
  (:func:`~repro.io.wire.save_instance`, :func:`~repro.io.wire.load_records`,
  ...).
"""

from repro.io.wire import (
    WIRE_FORMAT,
    WIRE_VERSION,
    canonical_json,
    dumps,
    envelope,
    instance_fingerprint,
    instance_from_dict,
    instance_to_dict,
    load,
    load_instance,
    load_records,
    loads,
    open_envelope,
    records_from_dict,
    records_to_dict,
    result_from_dict,
    result_to_dict,
    save,
    save_instance,
    save_records,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "canonical_json",
    "dumps",
    "envelope",
    "instance_fingerprint",
    "instance_from_dict",
    "instance_to_dict",
    "load",
    "load_instance",
    "load_records",
    "loads",
    "open_envelope",
    "records_from_dict",
    "records_to_dict",
    "result_from_dict",
    "result_to_dict",
    "save",
    "save_instance",
    "save_records",
    "schedule_from_dict",
    "schedule_to_dict",
]
