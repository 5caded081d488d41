"""Run algorithm variants over instance grids and collect flat records.

The runner is deliberately simple: it materialises each instance of a grid,
runs the requested algorithm variants on it, and emits one
:class:`RunRecord` per (instance, variant) pair.  All downstream analysis
(ranks, performance profiles, cost ratios, runtimes — see
:mod:`repro.experiments.metrics`) operates on lists of these records, which
keeps the figure generators independent from how the runs were produced.

:func:`run_grid` runs through the :mod:`repro.api` facade: it builds one
spec-defined :class:`~repro.api.jobs.Job` per grid cell and runs the jobs
through :func:`~repro.api.execute.parallel_map` — inline for ``jobs=1``,
over a pool of worker processes for ``jobs=N``.  Both modes run the same
code, and each cell derives its random streams from the master seed and
its own coordinates only, so they produce the same records, up to
wall-clock timings, in the same order.

The facade imports are deferred: :mod:`repro.api` composes this module's
:class:`RunRecord` into its results, so importing it at module load time
would be circular.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec

__all__ = ["RunRecord", "run_grid", "records_by_instance"]


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one instance.

    The metadata of the instance (family, cluster, scenario, deadline factor,
    size) is denormalised into the record so that grouping and filtering never
    need the instance object again.
    """

    instance: str
    variant: str
    carbon_cost: int
    runtime_seconds: float
    makespan: int
    deadline: int
    num_tasks: int
    family: str = ""
    cluster: str = ""
    scenario: str = ""
    deadline_factor: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Return the record as a plain dictionary (JSON friendly)."""
        return {
            "instance": self.instance,
            "variant": self.variant,
            "carbon_cost": self.carbon_cost,
            "runtime_seconds": self.runtime_seconds,
            "makespan": self.makespan,
            "deadline": self.deadline,
            "num_tasks": self.num_tasks,
            "family": self.family,
            "cluster": self.cluster,
            "scenario": self.scenario,
            "deadline_factor": self.deadline_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Values are coerced to their field types, so a record read back from
        wire-format JSON compares equal to the one written.  A missing
        required field raises :class:`KeyError` with the field name; a value
        that is not a scalar of the field's type (a list, an object, a
        non-numeric string, NaN or an infinity) raises :class:`ValueError`
        naming the field.
        """
        values: Dict[str, object] = {}
        for field in fields(cls):
            if field.name not in data:
                if field.default is MISSING:
                    raise KeyError(field.name)
                continue
            value = data[field.name]
            coerce, expected = _FIELD_TYPES[field.type]
            try:
                coerced = None if isinstance(value, (list, dict)) else coerce(value)
            except (TypeError, ValueError, OverflowError):
                coerced = None
            if coerced is None or (coerce is float and not math.isfinite(coerced)):
                raise ValueError(f"field {field.name!r} must be {expected}, got {value!r}")
            values[field.name] = coerced
        return cls(**values)


#: Field annotation -> coercion of a :class:`RunRecord` field read from the
#: wire, and what it accepts.
_FIELD_TYPES: Dict[str, Tuple[Callable[[object], object], str]] = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": (float, "a finite number"),
}


def run_grid(
    specs: Iterable[InstanceSpec],
    *,
    variants: Optional[Sequence[str]] = None,
    scheduler: Optional[CaWoSched] = None,
    master_seed: Optional[int] = None,
    jobs: int = 1,
) -> List[RunRecord]:
    """Run *variants* on every instance of the grid.

    Parameters
    ----------
    specs:
        Grid cells (see :func:`repro.experiments.instances.default_grid`).
    variants:
        Algorithm variant names; defaults to all 17 (ASAP + 16 heuristics).
    scheduler:
        Scheduler configuration (block size ``k``, window ``µ``).
    master_seed:
        Master seed combined with each cell's coordinates; an integer or
        ``None``.  A live generator is rejected: it would make the derived
        streams depend on evaluation order, which a worker pool does not
        define.
    jobs:
        Number of parallel workers.  ``1`` (the default) runs the cells one
        after another in this process; ``N > 1`` fans them out over a pool
        of worker processes.  The records are identical, in identical order.
    """
    from repro.api.execute import execute_job_payload, parallel_map
    from repro.api.jobs import Job

    if isinstance(master_seed, np.random.Generator):
        raise ValueError(
            "run_grid needs an integer (or None) master_seed; a live generator "
            "would make results depend on evaluation order"
        )
    payloads = [
        Job.from_spec(
            spec, variants=variants, scheduler=scheduler, master_seed=master_seed
        ).to_dict()
        for spec in specs
    ]
    return [
        RunRecord.from_dict(entry)
        for row in parallel_map(execute_job_payload, payloads, jobs=jobs)
        for entry in row
    ]


def records_by_instance(records: Iterable[RunRecord]) -> Dict[str, List[RunRecord]]:
    """Group records by instance name (preserving per-instance order)."""
    grouped: Dict[str, List[RunRecord]] = {}
    for record in records:
        grouped.setdefault(record.instance, []).append(record)
    return grouped
