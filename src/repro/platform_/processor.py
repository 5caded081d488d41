"""Processor specifications.

A processor (the paper's ``p_i``) is described by a normalised *speed*, an
*idle power* drawn every time unit regardless of activity, and a *working
power* added whenever the processor executes a task.  Communication links are
modelled as fictional processors of kind ``"link"`` (see §3 of the paper);
their "speed" is the link bandwidth (normalised to 1 in the paper's
experiments) and their power draw is small.

Running times are integer multiples of the global time unit:
``execution_time(work) = ceil(work / speed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable

from repro.utils.names import decode_name, encode_name
from repro.utils.validation import INT64_MAX, check_in_range, check_non_negative_int

__all__ = ["ProcessorSpec", "COMPUTE", "LINK"]

#: Processor kinds.
COMPUTE = "compute"
LINK = "link"


@dataclass(frozen=True)
class ProcessorSpec:
    """Specification of a (real or fictional) processor.

    Parameters
    ----------
    name:
        Unique processor identifier within its cluster / extended platform.
    speed:
        Normalised processing speed (positive).  A task with work volume ``w``
        takes ``ceil(w / speed)`` time units.
    p_idle:
        Idle power drawn every time unit (non-negative integer).
    p_work:
        Additional power drawn while executing a task (non-negative integer).
    kind:
        ``"compute"`` for real processors, ``"link"`` for communication-link
        pseudo-processors.
    proc_type:
        Optional type label (e.g. ``"PT3"`` from Table 1 of the paper).
    """

    name: Hashable
    speed: float = 1.0
    p_idle: int = 0
    p_work: int = 1
    kind: str = COMPUTE
    proc_type: str = ""

    def __post_init__(self) -> None:
        check_in_range(self.speed, "speed", low=0.0, low_inclusive=False)
        for name in ("p_idle", "p_work"):
            if check_non_negative_int(getattr(self, name), name) > INT64_MAX:
                raise ValueError(f"{name} must be at most {INT64_MAX}, got {getattr(self, name)}")
        if self.kind not in (COMPUTE, LINK):
            raise ValueError(f"kind must be 'compute' or 'link', got {self.kind!r}")

    # ------------------------------------------------------------------ #
    @property
    def total_power(self) -> int:
        """Idle plus working power — the draw while the processor is active."""
        return int(self.p_idle + self.p_work)

    def execution_time(self, work: int) -> int:
        """Return the integer running time of a task with the given work volume.

        The result is at least 1 time unit (a task always occupies some time).
        """
        work = check_non_negative_int(work, "work")
        return max(1, math.ceil(work / self.speed))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the specification."""
        return {
            "name": encode_name(self.name),
            "speed": float(self.speed),
            "p_idle": self.p_idle,
            "p_work": self.p_work,
            "kind": self.kind,
            "proc_type": self.proc_type,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProcessorSpec":
        """Rebuild a processor specification from :meth:`to_dict` output."""
        return cls(
            name=decode_name(data["name"]),
            speed=float(data["speed"]),
            p_idle=int(data["p_idle"]),
            p_work=int(data["p_work"]),
            kind=str(data.get("kind", COMPUTE)),
            proc_type=str(data.get("proc_type", "")),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessorSpec({self.name!r}, speed={self.speed}, "
            f"Pidle={self.p_idle}, Pwork={self.p_work}, kind={self.kind})"
        )
