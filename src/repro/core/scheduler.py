"""The CaWoSched facade: run named variants and collect results.

:class:`CaWoSched` bundles the greedy phase, the local search and the ASAP
baseline behind a single entry point keyed by the paper's variant names
(``slack``, ``pressWR-LS``, ``ASAP``, ...).  Every run produces a
:class:`ScheduleResult` with the schedule, its carbon cost and the wall-clock
time spent, which is what the experiment harness records.  The ``-LS``
variants of one job run through :meth:`CaWoSched._refine`, whose local
searches start from the greedy parents' results when the job holds them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.greedy import greedy_schedule
from repro.core.local_search import DEFAULT_WINDOW, local_search
from repro.core.subdivision import DEFAULT_BLOCK_SIZE
from repro.core.variants import VariantSpec, get_variant
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["ScheduleResult", "CaWoSched"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of running one algorithm variant on one instance.

    Attributes
    ----------
    variant:
        Name of the algorithm variant.
    schedule:
        The produced (feasible) schedule.
    carbon_cost:
        Total carbon cost of the schedule.
    runtime_seconds:
        Wall-clock time of the run, validation included.  An ``-LS``
        result reports its greedy parent's ``runtime_seconds`` (or, without
        the parent in the job, the time of its own greedy schedule) plus
        the wall time of its own local search and validation, so it always
        covers greedy phase + local search.  The greedy phase's
        instance-invariant inputs (initial EST/LST, task orders,
        subdivisions) are computed by the first greedy run on an instance
        and reused by later ones, so within a job the first greedy variant
        pays for them and the others report marginal times.
    makespan:
        Makespan of the schedule.
    """

    variant: str
    schedule: Schedule
    carbon_cost: int
    runtime_seconds: float
    makespan: int


class CaWoSched:
    """Carbon-aware workflow scheduler with a fixed mapping and deadline.

    Every schedule a run produces is checked for feasibility with
    :func:`~repro.schedule.validation.check_schedule`.

    Parameters
    ----------
    block_size:
        Maximum block size ``k`` of the refined interval subdivision
        (paper default: 3); a positive integer.
    window:
        Local-search window ``µ`` (paper default: 10); a non-negative
        integer.

    Examples
    --------
    >>> scheduler = CaWoSched()
    >>> result = scheduler.run(instance, "pressWR-LS")   # doctest: +SKIP
    >>> result.carbon_cost                                # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.block_size = check_positive_int(block_size, "block_size")
        self.window = check_non_negative_int(window, "window")

    # ------------------------------------------------------------------ #
    def config_dict(self) -> Dict[str, object]:
        """Return the scheduler configuration as a plain dictionary.

        Used by :mod:`repro.api` jobs to ship the configuration across
        process boundaries and to fingerprint them.
        """
        return {"block_size": self.block_size, "window": self.window}

    @classmethod
    def from_config(cls, config: Optional[Dict[str, object]] = None) -> "CaWoSched":
        """Rebuild a scheduler from :meth:`config_dict` output.

        The values are checked as the constructor checks them, not converted:
        ``"window": 2.9`` raises instead of running another configuration.
        """
        config = dict(config or {})
        return cls(
            block_size=config.get("block_size", DEFAULT_BLOCK_SIZE),
            window=config.get("window", DEFAULT_WINDOW),
        )

    # ------------------------------------------------------------------ #
    def _greedy(self, instance: ProblemInstance, spec: VariantSpec) -> Schedule:
        """Return the greedy schedule of *spec*'s configuration, unchecked and uncosted."""
        return greedy_schedule(
            instance,
            base=spec.base,
            weighted=spec.weighted,
            refined=spec.refined,
            block_size=self.block_size,
        )

    def run(self, instance: ProblemInstance, variant: str) -> ScheduleResult:
        """Run *variant* on *instance* and return a timed, costed result.

        An ``-LS`` variant computes its greedy schedule and refines it
        (see :meth:`_refine`).

        Raises
        ------
        CaWoSchedError
            If *variant* is unknown.
        """
        spec = get_variant(variant)
        if spec.local_search:
            return self._refine(instance, [variant], {})[0]
        begin = time.perf_counter()
        produced = asap_schedule(instance) if spec.is_baseline else self._greedy(instance, spec)
        check_schedule(produced)
        elapsed = time.perf_counter() - begin
        return ScheduleResult(
            variant=variant,
            schedule=produced,
            carbon_cost=carbon_cost(produced),
            runtime_seconds=elapsed,
            makespan=produced.makespan,
        )

    def _refine(
        self,
        instance: ProblemInstance,
        variants: Sequence[str],
        parents: Mapping[str, ScheduleResult],
    ) -> List[ScheduleResult]:
        """Run the ``-LS`` *variants* on *instance*, one local search each.

        *parents* maps greedy variant names to their results on *instance*;
        a variant whose parent is missing computes its greedy schedule here,
        without checking or costing it.  Every result is validated and
        carries the cost its search read off its excess row.  Its
        ``runtime_seconds`` is its greedy parent's time (or the time of the
        greedy schedule computed here) plus the wall time of its own local
        search and validation.
        """
        results = []
        for variant in variants:
            spec = get_variant(variant)
            parent = parents.get(spec.parent)
            if parent is None:
                begin = time.perf_counter()
                greedy = self._greedy(instance, spec)
                inherited = time.perf_counter() - begin
            else:
                greedy, inherited = parent.schedule, parent.runtime_seconds
            begin = time.perf_counter()
            produced = local_search([greedy], window=self.window)[0]
            check_schedule(produced)
            results.append(
                ScheduleResult(
                    variant=variant,
                    schedule=produced,
                    carbon_cost=produced._cost,
                    runtime_seconds=inherited + (time.perf_counter() - begin),
                    makespan=produced.makespan,
                )
            )
        return results
