"""Structured events of the online simulation.

Every state change of the discrete-event engine — a workflow arriving, a
policy deferring or rescheduling it, the commitment of a schedule, a workflow
finishing — is recorded as one :class:`SimEvent`.  Events are plain data
(integer virtual times, string kinds, JSON-compatible detail dictionaries) so
that the event log serialises losslessly through the wire format and two runs
with the same seed produce byte-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["SimEvent", "EVENT_KINDS"]

#: The event kinds the engine emits, in rough lifecycle order.
EVENT_KINDS: Tuple[str, ...] = (
    "arrival",      # a workflow entered the system
    "plan",         # a policy computed a (tentative) schedule for a pending workflow
    "defer",        # a policy postponed committing a workflow
    "reschedule",   # a periodic policy re-planned a pending workflow
    "commit",       # a workflow was bound to a slot and its schedule fixed
    "finish",       # a committed workflow completed execution
)


@dataclass(frozen=True)
class SimEvent:
    """One structured event of the simulation log.

    Attributes
    ----------
    time:
        Virtual time of the event (integer scheduler time units).
    seq:
        Global emission sequence number; makes the total order of the log
        explicit even when several events share a time unit.
    kind:
        One of :data:`EVENT_KINDS`.
    job:
        Name of the workflow the event refers to (empty for global events).
    data:
        JSON-compatible event details (predicted costs, wake times, ...).
    """

    time: int
    seq: int
    kind: str
    job: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Return the event as a plain dictionary."""
        return {
            "time": self.time,
            "seq": self.seq,
            "kind": self.kind,
            "job": self.job,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SimEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            time=int(payload["time"]),
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            job=str(payload.get("job", "")),
            data=dict(payload.get("data", {})),
        )
