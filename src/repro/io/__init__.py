"""Serialisation boundary: the versioned JSON wire format.

Public surface (see :mod:`repro.io.wire` for the full documentation):

* the envelope (:func:`~repro.io.wire.envelope`,
  :func:`~repro.io.wire.open_envelope`, :data:`~repro.io.wire.WIRE_VERSION`),
* instance payloads (:func:`~repro.io.wire.instance_to_dict`,
  :func:`~repro.io.wire.instance_from_dict`) and their canonical text
  (:func:`~repro.io.wire.canonical_json`),
* file round trips for the three kinds the CLI writes — instances, run
  records and simulation reports (:func:`~repro.io.wire.save_instance`,
  :func:`~repro.io.wire.load_records`, ...).
"""

from repro.utils.lazy import _lazy_exports

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "canonical_json",
    "dumps",
    "envelope",
    "instance_from_dict",
    "instance_to_dict",
    "load",
    "load_instance",
    "load_records",
    "loads",
    "open_envelope",
    "save",
    "save_instance",
    "save_records",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.io.wire": (
            "WIRE_FORMAT",
            "WIRE_VERSION",
            "canonical_json",
            "dumps",
            "envelope",
            "instance_from_dict",
            "instance_to_dict",
            "load",
            "load_instance",
            "load_records",
            "loads",
            "open_envelope",
            "save",
            "save_instance",
            "save_records",
        ),
    },
)
