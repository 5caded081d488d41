"""Heterogeneous cluster model and the communication-extended platform.

A :class:`Cluster` holds the real (compute) processors.  The paper's framework
adds one fictional processor per directed communication link (full-duplex,
fully connected topology); :class:`ExtendedPlatform` provides that view.  To
keep the model practical, link processors are only materialised for the links
that are actually used by at least one communication of the mapping — the
paper notes that the static power of an unused link can be set to 0, which is
equivalent to omitting it from the platform entirely.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.utils.errors import InvalidMappingError
from repro.utils.rng import RNGLike, ensure_rng
from repro.platform_.processor import COMPUTE, LINK, ProcessorSpec

__all__ = ["Cluster", "ExtendedPlatform", "link_name"]

#: Inclusive range of the link processors' ``Pidle`` and ``Pwork`` (the paper
#: draws both "randomly between 1 and 2").
LINK_POWER_RANGE = (1, 2)


def link_name(source_proc: Hashable, target_proc: Hashable) -> Tuple[str, Hashable, Hashable]:
    """Return the canonical name of the directed link ``source -> target``."""
    return ("link", source_proc, target_proc)


class Cluster:
    """A set of heterogeneous compute processors.

    Parameters
    ----------
    processors:
        The compute processors.  Names must be unique; every entry must have
        kind ``"compute"``.
    name:
        Human-readable cluster name (e.g. ``"small"`` / ``"large"``).
    """

    def __init__(self, processors: Iterable[ProcessorSpec], name: str = "cluster") -> None:
        self._name = str(name)
        self._processors: Dict[Hashable, ProcessorSpec] = {}
        for spec in processors:
            if spec.kind != COMPUTE:
                raise ValueError(
                    f"cluster processors must be compute processors, got {spec.kind!r}"
                )
            if spec.name in self._processors:
                raise ValueError(f"duplicate processor name {spec.name!r}")
            self._processors[spec.name] = spec
        if not self._processors:
            raise ValueError("a cluster needs at least one processor")
        self._memo: Dict[Hashable, object] = {}

    def _memoised(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return ``compute()``, once per cluster under *key*: a cluster has no mutators."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Cluster name."""
        return self._name

    @property
    def num_processors(self) -> int:
        """Number of compute processors."""
        return len(self._processors)

    def processor_names(self) -> List[Hashable]:
        """Return the processor names (insertion order)."""
        return list(self._processors)

    def processors(self) -> List[ProcessorSpec]:
        """Return the processor specifications (insertion order)."""
        return list(self._processors.values())

    def processor(self, name: Hashable) -> ProcessorSpec:
        """Return the specification of processor *name*."""
        try:
            return self._processors[name]
        except KeyError as exc:
            raise KeyError(f"unknown processor {name!r}") from exc

    def has_processor(self, name: Hashable) -> bool:
        """Return whether processor *name* exists."""
        return name in self._processors

    def total_idle_power(self) -> int:
        """Return the sum of idle powers of all compute processors."""
        return sum(p.p_idle for p in self._processors.values())

    def total_work_power(self) -> int:
        """Return the sum of working powers of all compute processors."""
        return sum(p.p_work for p in self._processors.values())

    def fastest_processor(self) -> ProcessorSpec:
        """Return the processor with the highest speed (ties: first declared)."""
        return max(self._processors.values(), key=lambda p: p.speed)

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the cluster."""
        return {
            "name": self._name,
            "processors": [spec.to_dict() for spec in self._processors.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cluster":
        """Rebuild a cluster from :meth:`to_dict` output."""
        return cls(
            [ProcessorSpec.from_dict(entry) for entry in data["processors"]],
            name=str(data.get("name", "cluster")),
        )

    def by_type(self) -> Dict[str, List[ProcessorSpec]]:
        """Group processors by their ``proc_type`` label."""
        groups: Dict[str, List[ProcessorSpec]] = {}
        for spec in self._processors.values():
            groups.setdefault(spec.proc_type or "unknown", []).append(spec)
        return groups

    def __iter__(self) -> Iterator[ProcessorSpec]:
        return iter(self._processors.values())

    def __len__(self) -> int:
        return len(self._processors)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._processors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(name={self._name!r}, processors={self.num_processors})"


class ExtendedPlatform:
    """The cluster plus the fictional link processors used by a mapping.

    The extended platform is what schedules and cost computations operate on:
    every task of the communication-enhanced DAG (computation or
    communication) is mapped onto exactly one of its processors.

    Parameters
    ----------
    cluster:
        The compute cluster.
    links:
        The link processors to include (typically only the links used by the
        mapping's communications).  Their names must be produced by
        :func:`link_name` and be unique.
    """

    def __init__(self, cluster: Cluster, links: Iterable[ProcessorSpec] = ()) -> None:
        self._cluster = cluster
        self._links: Dict[Hashable, ProcessorSpec] = {}
        for spec in links:
            if spec.kind != LINK:
                raise ValueError(f"link processors must have kind 'link', got {spec.kind!r}")
            if spec.name in self._links or cluster.has_processor(spec.name):
                raise ValueError(f"duplicate processor name {spec.name!r}")
            self._links[spec.name] = spec

    # ------------------------------------------------------------------ #
    @classmethod
    def for_links(
        cls,
        cluster: Cluster,
        used_links: Iterable[Tuple[Hashable, Hashable]],
        *,
        rng: RNGLike = None,
    ) -> "ExtendedPlatform":
        """Create an extended platform with one processor per used link.

        Idle and working power of each link are drawn uniformly from the
        integers in :data:`LINK_POWER_RANGE`, reproducing the paper's "values
        for Pidle and Pwork randomly between 1 and 2 for communication links".
        The link bandwidth (speed) is normalised to 1.
        """
        rng = ensure_rng(rng)
        low, high = LINK_POWER_RANGE
        specs: List[ProcessorSpec] = []
        seen = set()
        for source_proc, target_proc in used_links:
            if source_proc == target_proc:
                raise InvalidMappingError(
                    f"link from processor {source_proc!r} to itself is not allowed"
                )
            for proc in (source_proc, target_proc):
                if not cluster.has_processor(proc):
                    raise InvalidMappingError(f"unknown processor {proc!r} in link")
            key = link_name(source_proc, target_proc)
            if key in seen:
                continue
            seen.add(key)
            p_idle = int(rng.integers(low, high + 1))
            p_work = int(rng.integers(low, high + 1))
            specs.append(
                ProcessorSpec(
                    name=key,
                    speed=1.0,
                    p_idle=p_idle,
                    p_work=p_work,
                    kind=LINK,
                    proc_type="LINK",
                )
            )
        return cls(cluster, specs)

    # ------------------------------------------------------------------ #
    @property
    def cluster(self) -> Cluster:
        """The underlying compute cluster."""
        return self._cluster

    @property
    def num_processors(self) -> int:
        """Total number of processors (compute + links)."""
        return self._cluster.num_processors + len(self._links)

    @property
    def num_links(self) -> int:
        """Number of link processors."""
        return len(self._links)

    def processor_names(self) -> List[Hashable]:
        """Return all processor names, compute processors first."""
        return self._cluster.processor_names() + list(self._links)

    def processors(self) -> List[ProcessorSpec]:
        """Return all processor specifications, compute processors first."""
        return self._cluster.processors() + list(self._links.values())

    def links(self) -> List[ProcessorSpec]:
        """Return the link processors."""
        return list(self._links.values())

    def processor(self, name: Hashable) -> ProcessorSpec:
        """Return the specification of processor *name* (compute or link)."""
        if self._cluster.has_processor(name):
            return self._cluster.processor(name)
        try:
            return self._links[name]
        except KeyError as exc:
            raise KeyError(f"unknown processor {name!r}") from exc

    def has_processor(self, name: Hashable) -> bool:
        """Return whether processor *name* exists (compute or link)."""
        return self._cluster.has_processor(name) or name in self._links

    def total_idle_power(self) -> int:
        """Return the sum of idle powers over all processors (compute + links)."""
        return self._cluster.total_idle_power() + sum(
            p.p_idle for p in self._links.values()
        )

    def total_work_power(self) -> int:
        """Return the sum of working powers over all processors (compute + links)."""
        return self._cluster.total_work_power() + sum(
            p.p_work for p in self._links.values()
        )

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the extended platform."""
        return {
            "cluster": self._cluster.to_dict(),
            "links": [spec.to_dict() for spec in self._links.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExtendedPlatform":
        """Rebuild an extended platform from :meth:`to_dict` output."""
        return cls(
            Cluster.from_dict(data["cluster"]),
            [ProcessorSpec.from_dict(entry) for entry in data.get("links", [])],
        )

    def __contains__(self, name: Hashable) -> bool:
        return self.has_processor(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExtendedPlatform(cluster={self._cluster.name!r}, "
            f"compute={self._cluster.num_processors}, links={len(self._links)})"
        )
