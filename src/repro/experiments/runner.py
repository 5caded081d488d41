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

The facade imports are deferred: :mod:`repro.api.jobs` imports
:mod:`repro.experiments.instances` to materialise spec jobs, which loads
this package, so importing the facade at module load time would be
circular.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec
from repro.io.records import RunRecord

__all__ = ["RunRecord", "run_grid", "records_by_instance"]


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
