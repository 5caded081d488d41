"""The simulation report: configuration echo, event log, records, metrics.

A :class:`SimReport` is the complete, self-describing outcome of one
simulation run.  It is plain data end to end — the configuration dictionary
that produced it, the structured event log, one :class:`JobRecord` per
completed workflow, the aggregated metrics, and the client facade's
statistics (cache hits tell how much work rescheduling policies saved).

Reports round-trip exactly through ``to_dict``/``from_dict`` and are
registered with the wire format as the ``"sim-report"`` kind (see
:func:`repro.io.wire.save_sim_report`).  Nothing in a report depends on
wall-clock time, so two runs with the same configuration serialise to
byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.sim.events import SimEvent
from repro.sim.metrics import JobRecord

__all__ = ["SimReport"]


@dataclass(frozen=True)
class SimReport:
    """Everything one simulation run produced.

    Attributes
    ----------
    config:
        The plain-data simulation configuration
        (:meth:`repro.sim.engine.SimulationConfig.to_dict` output).
    events:
        The structured event log, in emission order.
    jobs:
        One record per completed workflow, in completion order.
    metrics:
        Aggregated online metrics (see
        :func:`repro.sim.metrics.compute_metrics`); empty when nothing
        arrived.
    service:
        Statistics of the :class:`~repro.api.client.Client` that backed the
        run (computed / cached schedule counts).  The field keeps its
        historical name so reports stay byte-identical.
    """

    config: Dict[str, object]
    events: Tuple[SimEvent, ...]
    jobs: Tuple[JobRecord, ...]
    metrics: Dict[str, float] = field(default_factory=dict)
    service: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Return the report as a plain dictionary (wire payload)."""
        return {
            "config": dict(self.config),
            "events": [event.to_dict() for event in self.events],
            "jobs": [record.to_dict() for record in self.jobs],
            "metrics": dict(self.metrics),
            "service": dict(self.service),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SimReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            config=dict(payload.get("config", {})),
            events=tuple(SimEvent.from_dict(entry) for entry in payload.get("events", [])),
            jobs=tuple(JobRecord.from_dict(entry) for entry in payload.get("jobs", [])),
            metrics={str(k): float(v) for k, v in dict(payload.get("metrics", {})).items()},
            service={str(k): int(v) for k, v in dict(payload.get("service", {})).items()},
        )
