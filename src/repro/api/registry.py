"""The algorithm registry: named variants with capability metadata.

:class:`AlgorithmRegistry` turns the paper's hard-coded variant table
(:mod:`repro.core.variants`) into a first-class, extensible registry.  Every
entry pairs an algorithm name with :class:`AlgorithmCapabilities` — which
phases it runs (greedy / local search / baseline), which base score it
optimises, whether it exploits the deadline, and which cost model it
minimises — and optionally a third-party runner callable.

All name-keyed dispatch in the system (``variants --json``, the online
simulator, the client facade) goes through a registry
instead of the raw variant table, so registering a new algorithm makes it
available everywhere at once:

>>> def my_algorithm(instance, scheduler):
...     return asap_schedule(instance)                      # doctest: +SKIP
>>> DEFAULT_REGISTRY.register(
...     "my-algo", my_algorithm,
...     capabilities=AlgorithmCapabilities(
...         phases=("greedy",), score="slack", weighted=False, refined=False,
...         supports_deadline=True, cost_model="carbon"))   # doctest: +SKIP
>>> client.submit(Job.from_instance(inst, variants=["my-algo"]))  # doctest: +SKIP

The built-in entries delegate to :class:`~repro.core.scheduler.CaWoSched`
unchanged, so results are byte-identical to calling the scheduler directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.errors import UnknownVariant
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.core.variants import ALL_VARIANTS, VariantSpec, variant_names
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule

__all__ = [
    "PHASE_GREEDY",
    "PHASE_LOCAL_SEARCH",
    "PHASE_BASELINE",
    "AlgorithmCapabilities",
    "RegisteredAlgorithm",
    "AlgorithmRegistry",
    "DEFAULT_REGISTRY",
]

#: Phase labels used in :attr:`AlgorithmCapabilities.phases`.
PHASE_GREEDY = "greedy"
PHASE_LOCAL_SEARCH = "local-search"
PHASE_BASELINE = "baseline"

#: Signature of a third-party algorithm: it receives the problem instance and
#: the scheduler configuration and returns a feasible :class:`Schedule`.
RunnerFn = Callable[[ProblemInstance, CaWoSched], Schedule]


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """What an algorithm can do, as machine-readable metadata.

    Attributes
    ----------
    phases:
        The phases the algorithm runs, in order (``"greedy"``,
        ``"local-search"``, ``"baseline"``).
    score:
        Base score the greedy phase ranks by (``"slack"`` / ``"pressure"``),
        or ``None`` when no score is involved.
    weighted:
        Whether the score is weighted by processor power.
    refined:
        Whether the refined interval subdivision is used.
    supports_deadline:
        Whether the algorithm exploits deadline slack.  The carbon-aware
        heuristics move work within ``[0, T)``; the ASAP baseline ignores
        the deadline entirely.
    cost_model:
        The objective the algorithm minimises: ``"carbon"`` for the
        CaWoSched heuristics, ``"makespan"`` for ASAP.
    """

    phases: Tuple[str, ...]
    score: Optional[str]
    weighted: bool
    refined: bool
    supports_deadline: bool
    cost_model: str

    def to_dict(self) -> Dict[str, object]:
        """Return the capabilities as a plain dictionary."""
        return {
            "phases": list(self.phases),
            "score": self.score,
            "weighted": self.weighted,
            "refined": self.refined,
            "supports_deadline": self.supports_deadline,
            "cost_model": self.cost_model,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AlgorithmCapabilities":
        """Rebuild capabilities from :meth:`to_dict` output."""
        return cls(
            phases=tuple(str(p) for p in data.get("phases", ())),
            score=None if data.get("score") is None else str(data["score"]),
            weighted=bool(data.get("weighted", False)),
            refined=bool(data.get("refined", False)),
            supports_deadline=bool(data.get("supports_deadline", True)),
            cost_model=str(data.get("cost_model", "carbon")),
        )


@dataclass(frozen=True)
class RegisteredAlgorithm:
    """One registry entry: a name, its capabilities, and how to run it.

    Built-in entries (``runner is None``) delegate to
    :class:`~repro.core.scheduler.CaWoSched` by name; third-party entries
    call their *runner* and have the produced schedule validated and costed
    by the registry.
    """

    name: str
    capabilities: AlgorithmCapabilities
    spec: Optional[VariantSpec] = None
    runner: Optional[RunnerFn] = None

    @property
    def builtin(self) -> bool:
        """Whether this is one of the paper's built-in variants."""
        return self.runner is None


def _capabilities_for(spec: VariantSpec) -> AlgorithmCapabilities:
    """Derive the capability metadata of a built-in variant."""
    if spec.is_baseline:
        return AlgorithmCapabilities(
            phases=(PHASE_BASELINE,),
            score=None,
            weighted=False,
            refined=False,
            supports_deadline=False,
            cost_model="makespan",
        )
    phases = (PHASE_GREEDY, PHASE_LOCAL_SEARCH) if spec.local_search else (PHASE_GREEDY,)
    return AlgorithmCapabilities(
        phases=phases,
        score=spec.base,
        weighted=spec.weighted,
        refined=spec.refined,
        supports_deadline=True,
        cost_model="carbon",
    )


class AlgorithmRegistry:
    """Name → algorithm dispatch with capability metadata.

    Parameters
    ----------
    builtin:
        Pre-populate the registry with the paper's seventeen variants
        (ASAP + 8 greedy + 8 ``-LS``), in :func:`~repro.core.variants.variant_names`
        order.  Third-party registrations append in registration order.
    """

    def __init__(self, *, builtin: bool = True) -> None:
        self._algorithms: Dict[str, RegisteredAlgorithm] = {}
        if builtin:
            for name in variant_names():
                spec = ALL_VARIANTS[name]
                self._algorithms[name] = RegisteredAlgorithm(
                    name=name, capabilities=_capabilities_for(spec), spec=spec
                )

    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        runner: RunnerFn,
        *,
        capabilities: AlgorithmCapabilities,
        replace: bool = False,
    ) -> RegisteredAlgorithm:
        """Register a third-party algorithm under *name*.

        The *runner* receives ``(instance, scheduler)`` and must return a
        feasible :class:`~repro.schedule.schedule.Schedule`; the registry
        times it, computes its carbon cost and (when the scheduler is
        configured to validate) checks feasibility.

        Raises
        ------
        ValueError
            If *name* is empty or already registered (and *replace* is
            false).
        """
        name = str(name)
        if not name:
            raise ValueError("algorithm name must be non-empty")
        if name in self._algorithms and not replace:
            raise ValueError(
                f"algorithm {name!r} is already registered; pass replace=True to override"
            )
        entry = RegisteredAlgorithm(name=name, capabilities=capabilities, runner=runner)
        self._algorithms[name] = entry
        return entry

    def get(self, name: str) -> RegisteredAlgorithm:
        """Return the entry called *name*.

        Raises
        ------
        UnknownVariant
            If the name is not registered.
        """
        try:
            return self._algorithms[name]
        except KeyError:
            known = ", ".join(sorted(self._algorithms))
            raise UnknownVariant(
                f"unknown algorithm variant {name!r}; known: {known}"
            ) from None

    def capabilities(self, name: str) -> AlgorithmCapabilities:
        """Return the capability metadata of the algorithm called *name*."""
        return self.get(name).capabilities

    def names(self) -> List[str]:
        """Return all registered names (built-ins first, then third-party)."""
        return list(self._algorithms)

    # ------------------------------------------------------------------ #
    def run(
        self,
        instance: ProblemInstance,
        name: str,
        *,
        scheduler: Optional[CaWoSched] = None,
    ) -> ScheduleResult:
        """Run the algorithm called *name* on *instance*.

        Built-in variants go through :meth:`CaWoSched.run` unchanged (so
        results are byte-identical to calling the scheduler directly);
        third-party runners are timed, costed and validated here.
        """
        scheduler = scheduler or CaWoSched()
        entry = self.get(name)
        if entry.runner is None:
            return scheduler.run(instance, name)
        begin = time.perf_counter()
        produced = entry.runner(instance, scheduler)
        elapsed = time.perf_counter() - begin
        if scheduler.validate:
            check_schedule(produced)
        return ScheduleResult(
            variant=name,
            schedule=produced,
            carbon_cost=carbon_cost(produced),
            runtime_seconds=elapsed,
            makespan=produced.makespan,
        )

    def describe(self) -> List[Dict[str, object]]:
        """Return one plain dictionary per algorithm (``variants --json``).

        Each entry carries the legacy listing keys (``name``, ``score``,
        ``weighted``, ``refined``, ``local_search``, ``baseline``) plus the
        capability metadata (``phases``, ``supports_deadline``,
        ``cost_model``, ``builtin``).
        """
        listing: List[Dict[str, object]] = []
        for entry in self._algorithms.values():
            caps = entry.capabilities
            listing.append(
                {
                    "name": entry.name,
                    "score": caps.score,
                    "weighted": caps.weighted,
                    "refined": caps.refined,
                    "local_search": PHASE_LOCAL_SEARCH in caps.phases,
                    "baseline": PHASE_BASELINE in caps.phases,
                    "phases": list(caps.phases),
                    "supports_deadline": caps.supports_deadline,
                    "cost_model": caps.cost_model,
                    "builtin": entry.builtin,
                }
            )
        return listing

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._algorithms

    def __iter__(self) -> Iterator[str]:
        return iter(self._algorithms)

    def __len__(self) -> int:
        return len(self._algorithms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AlgorithmRegistry({len(self._algorithms)} algorithms)"


#: The process-wide registry every entry point consults by default.
DEFAULT_REGISTRY = AlgorithmRegistry()
