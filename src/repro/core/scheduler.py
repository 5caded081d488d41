"""The CaWoSched facade: run named variants and collect results.

:class:`CaWoSched` bundles the greedy phase, the local search and the ASAP
baseline behind a single entry point keyed by the paper's variant names
(``slack``, ``pressWR-LS``, ``ASAP``, ...).  Every run produces a
:class:`ScheduleResult` with the schedule, its carbon cost and the wall-clock
time spent, which is what the experiment harness records.  An ``-LS``
variant can start from its greedy parent's result instead of recomputing the
greedy schedule (``run(..., parent=...)``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.greedy import greedy_schedule
from repro.core.local_search import DEFAULT_WINDOW, local_search
from repro.core.subdivision import DEFAULT_BLOCK_SIZE
from repro.core.variants import VariantSpec, get_variant
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule
from repro.utils.errors import CaWoSchedError

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
        Wall-clock time of the run, validation included.  An ``-LS`` result
        built from its greedy parent's schedule (see :meth:`CaWoSched.run`)
        reports the parent's ``runtime_seconds`` plus its own elapsed time,
        so it always covers greedy phase + local search.
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

    Parameters
    ----------
    block_size:
        Maximum block size ``k`` of the refined interval subdivision
        (paper default: 3).
    window:
        Local-search window ``µ`` (paper default: 10).
    validate:
        Check every produced schedule for feasibility (adds a small overhead;
        enabled by default).

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
        validate: bool = True,
    ) -> None:
        self.block_size = int(block_size)
        self.window = int(window)
        self.validate = bool(validate)

    # ------------------------------------------------------------------ #
    def config_dict(self) -> Dict[str, object]:
        """Return the scheduler configuration as a plain dictionary.

        Used by :mod:`repro.api` jobs to ship the configuration across
        process boundaries and to fingerprint them.
        """
        return {
            "block_size": self.block_size,
            "window": self.window,
            "validate": self.validate,
        }

    @classmethod
    def from_config(cls, config: Optional[Dict[str, object]] = None) -> "CaWoSched":
        """Rebuild a scheduler from :meth:`config_dict` output."""
        config = dict(config or {})
        return cls(
            block_size=int(config.get("block_size", DEFAULT_BLOCK_SIZE)),
            window=int(config.get("window", DEFAULT_WINDOW)),
            validate=bool(config.get("validate", True)),
        )

    # ------------------------------------------------------------------ #
    def schedule(self, instance: ProblemInstance, variant: str) -> Schedule:
        """Return the schedule produced by *variant* on *instance*."""
        return self._schedule(instance, get_variant(variant))

    def _schedule(
        self,
        instance: ProblemInstance,
        spec: VariantSpec,
        greedy: Optional[Schedule] = None,
    ) -> Schedule:
        """Run *spec* on *instance*, starting from *greedy* if it is given."""
        if spec.is_baseline:
            produced = asap_schedule(instance)
        else:
            if greedy is None:
                greedy = greedy_schedule(
                    instance,
                    base=spec.base,
                    weighted=spec.weighted,
                    refined=spec.refined,
                    block_size=self.block_size,
                )
            produced = greedy
            if spec.local_search:
                produced = local_search(
                    greedy, window=self.window, algorithm_name=spec.name
                )
        if self.validate:
            check_schedule(produced)
        return produced

    def run(
        self,
        instance: ProblemInstance,
        variant: str,
        *,
        parent: Optional[ScheduleResult] = None,
    ) -> ScheduleResult:
        """Run *variant* on *instance* and return a timed, costed result.

        *parent* is the result of the greedy parent of an ``-LS`` variant on
        the same instance (``variant == parent.variant + "-LS"``).  When it is
        given, the greedy phase is skipped and the local search starts from
        ``parent.schedule``; the result is identical to a run without
        *parent*, and its ``runtime_seconds`` is ``parent.runtime_seconds``
        plus the time spent here.  The new schedule is still validated and
        costed; *parent* is not modified.

        Raises
        ------
        CaWoSchedError
            If *variant* is unknown, or *parent* is given for a variant that
            is not an ``-LS`` variant, is not its greedy parent, or was
            computed on another instance.
        """
        begin = time.perf_counter()
        spec = get_variant(variant)
        if parent is None:
            produced = self._schedule(instance, spec)
            inherited = 0.0
        else:
            _check_parent(spec, instance, parent)
            produced = self._schedule(instance, spec, greedy=parent.schedule)
            inherited = parent.runtime_seconds
        elapsed = time.perf_counter() - begin
        return ScheduleResult(
            variant=variant,
            schedule=produced,
            carbon_cost=carbon_cost(produced),
            runtime_seconds=inherited + elapsed,
            makespan=produced.makespan,
        )


def _check_parent(
    spec: VariantSpec, instance: ProblemInstance, parent: ScheduleResult
) -> None:
    """Reject a *parent* that is not *spec*'s greedy parent on *instance*."""
    if spec.parent is None:
        raise CaWoSchedError(
            f"parent= is only accepted for -LS variants, not {spec.name!r}"
        )
    if parent.variant != spec.parent:
        raise CaWoSchedError(
            f"{spec.name!r} refines {spec.parent!r}, not {parent.variant!r}"
        )
    if parent.schedule.instance is not instance:
        raise CaWoSchedError(
            f"the parent {parent.variant!r} result belongs to another instance"
        )
