"""Cluster presets reproducing Table 1 of the paper.

The paper's clusters use six processor types PT1..PT6 (speed, Pidle, Pwork as
in Table 1) with 12 nodes per type in the *small* cluster (72 nodes) and 24
per type in the *large* cluster (144 nodes).  Besides the exact presets, this
module exposes scaled-down variants (same six types, fewer nodes per type)
which the default benchmark grid uses so that the whole evaluation runs on a
laptop, and a generic factory :func:`cluster_from_table1`.

:data:`CLUSTER_PRESETS` names the clusters the experiment grid, the online
simulator and the CLI accept (``small``, ``large``, ``single``);
:func:`cluster_preset` builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.platform_.cluster import Cluster
from repro.platform_.processor import ProcessorSpec
from repro.utils.validation import check_positive_int

__all__ = [
    "CLUSTER_PRESETS",
    "PROCESSOR_TYPES",
    "ProcessorType",
    "cluster_from_table1",
    "cluster_preset",
    "small_cluster",
    "large_cluster",
    "scaled_small_cluster",
    "scaled_large_cluster",
    "uniform_cluster",
    "single_processor_cluster",
    "table1_rows",
]


@dataclass(frozen=True)
class ProcessorType:
    """One row of Table 1: a processor type with speed and power values."""

    name: str
    speed: float
    p_idle: int
    p_work: int
    nodes_small: int
    nodes_large: int


#: Table 1 of the paper, verbatim.
PROCESSOR_TYPES: Tuple[ProcessorType, ...] = (
    ProcessorType("PT1", 4, 40, 10, 12, 24),
    ProcessorType("PT2", 6, 60, 30, 12, 24),
    ProcessorType("PT3", 8, 80, 40, 12, 24),
    ProcessorType("PT4", 12, 120, 50, 12, 24),
    ProcessorType("PT5", 16, 150, 70, 12, 24),
    ProcessorType("PT6", 32, 200, 100, 12, 24),
)


def table1_rows() -> List[Dict[str, object]]:
    """Return Table 1 as a list of dictionaries (used by the Table 1 bench)."""
    return [
        {
            "Processor Name": pt.name,
            "Speed": pt.speed,
            "Pidle": pt.p_idle,
            "Pwork": pt.p_work,
            "small": pt.nodes_small,
            "large": pt.nodes_large,
        }
        for pt in PROCESSOR_TYPES
    ]


def cluster_from_table1(nodes_per_type: int, *, name: str = "custom") -> Cluster:
    """Build a cluster with *nodes_per_type* nodes of each of the six types."""
    nodes_per_type = check_positive_int(nodes_per_type, "nodes_per_type")
    processors: List[ProcessorSpec] = []
    for pt in PROCESSOR_TYPES:
        for index in range(nodes_per_type):
            processors.append(
                ProcessorSpec(
                    name=f"{pt.name.lower()}_{index}",
                    speed=pt.speed,
                    p_idle=pt.p_idle,
                    p_work=pt.p_work,
                    proc_type=pt.name,
                )
            )
    return Cluster(processors, name=name)


def small_cluster() -> Cluster:
    """The paper's *small* cluster: 12 nodes of each type, 72 nodes total."""
    return cluster_from_table1(12, name="small")


def large_cluster() -> Cluster:
    """The paper's *large* cluster: 24 nodes of each type, 144 nodes total."""
    return cluster_from_table1(24, name="large")


def scaled_small_cluster(nodes_per_type: int = 2) -> Cluster:
    """A laptop-scale stand-in for the small cluster (default 12 nodes total).

    Keeps the six processor types and their heterogeneity; only the node count
    per type shrinks.  Used by the default benchmark grid.
    """
    return cluster_from_table1(nodes_per_type, name="small")


def scaled_large_cluster(nodes_per_type: int = 4) -> Cluster:
    """A laptop-scale stand-in for the large cluster (default 24 nodes total)."""
    return cluster_from_table1(nodes_per_type, name="large")


def uniform_cluster(
    num_processors: int,
    *,
    speed: float = 1.0,
    p_idle: int = 0,
    p_work: int = 1,
    name: str = "uniform",
) -> Cluster:
    """A cluster of identical processors.

    This is the platform of the NP-hardness construction (Pidle = 0,
    Pwork = 1) and of many unit tests.
    """
    num_processors = check_positive_int(num_processors, "num_processors")
    processors = [
        ProcessorSpec(
            name=f"p{i}", speed=speed, p_idle=p_idle, p_work=p_work, proc_type="UNIFORM"
        )
        for i in range(num_processors)
    ]
    return Cluster(processors, name=name)


def single_processor_cluster(
    *, speed: float = 1.0, p_idle: int = 0, p_work: int = 1, name: str = "single"
) -> Cluster:
    """A single-processor cluster (the polynomial DP case)."""
    return uniform_cluster(1, speed=speed, p_idle=p_idle, p_work=p_work, name=name)


#: The named cluster presets: name -> factory taking the nodes per processor
#: type (``None`` for the preset's default; ``single`` has one processor).
CLUSTER_PRESETS: Dict[str, Callable[[Optional[int]], Cluster]] = {
    "small": lambda nodes_per_type: scaled_small_cluster(nodes_per_type or 2),
    "large": lambda nodes_per_type: scaled_large_cluster(nodes_per_type or 4),
    "single": lambda nodes_per_type: single_processor_cluster(),
}


def cluster_preset(name: str, nodes_per_type: Optional[int] = None) -> Cluster:
    """Return a new cluster of the preset *name* (see :data:`CLUSTER_PRESETS`).

    A cluster has no mutator, so callers that need one preset many times
    may share one: the online simulator builds each preset once per process.

    Raises
    ------
    ValueError
        If *name* is not a preset.
    """
    if name not in CLUSTER_PRESETS:
        known = ", ".join(CLUSTER_PRESETS)
        raise ValueError(f"unknown cluster preset {name!r}; known: {known}")
    return CLUSTER_PRESETS[name](nodes_per_type)
