"""Task objects of a workflow.

A workflow vertex is a :class:`Task`: a name, an integer amount of *work*
(normalised computational volume, the paper's vertex weight) and an optional
category label used by the family generators (e.g. ``"qc"``, ``"align"``,
``"merge"``).  The actual running time of a task on a processor is the work
divided by the processor speed, rounded up to an integer number of time units
(see :meth:`repro.platform_.processor.ProcessorSpec.execution_time`).

Communication tasks of the communication-enhanced DAG are represented by
:class:`CommTask`, which remembers the original edge it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.utils.names import decode_name, encode_name
from repro.utils.validation import check_positive_int

__all__ = ["Task", "CommTask"]


@dataclass(frozen=True)
class Task:
    """A computational task of a workflow.

    Parameters
    ----------
    name:
        Unique task identifier within its workflow.
    work:
        Normalised computational volume (positive integer).  The paper calls
        this the vertex weight; the running time on processor ``p`` is
        ``ceil(work / speed(p))``.
    category:
        Optional free-form label describing the role of the task inside its
        workflow family (used by the synthetic generators and by examples).
    """

    name: Hashable
    work: int = 1
    category: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive_int(self.work, "work")

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the task."""
        return {
            "name": encode_name(self.name),
            "work": self.work,
            "category": self.category,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Task":
        """Rebuild a task from :meth:`to_dict` output."""
        return cls(
            name=decode_name(data["name"]),
            work=int(data["work"]),
            category=data.get("category"),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, work={self.work})"


@dataclass(frozen=True)
class CommTask:
    """A communication pseudo-task of the communication-enhanced DAG.

    A communication task represents the data transfer along one original edge
    ``(source, target)`` whose endpoints are mapped onto different processors.
    Its *volume* is the original edge's communication weight; its running time
    on the (fictional) link processor is the volume divided by the link
    bandwidth (normalised to 1 in the paper, hence equal to the volume).

    Parameters
    ----------
    source, target:
        Names of the original tasks connected by the edge this communication
        realises.
    volume:
        Communication volume (positive integer).
    """

    source: Hashable
    target: Hashable
    volume: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.volume, "volume")

    @property
    def name(self) -> Tuple[str, Hashable, Hashable]:
        """Unique, hashable identifier of this communication task."""
        return ("comm", self.source, self.target)

    @property
    def edge(self) -> Tuple[Hashable, Hashable]:
        """The original edge ``(source, target)`` this task realises."""
        return (self.source, self.target)

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the communication task."""
        return {
            "source": encode_name(self.source),
            "target": encode_name(self.target),
            "volume": self.volume,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CommTask":
        """Rebuild a communication task from :meth:`to_dict` output."""
        return cls(
            source=decode_name(data["source"]),
            target=decode_name(data["target"]),
            volume=int(data["volume"]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommTask({self.source!r}->{self.target!r}, volume={self.volume})"
