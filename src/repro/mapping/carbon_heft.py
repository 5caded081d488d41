"""Carbon-aware HEFT — the two-pass extension sketched in the paper's §7.

The paper's future-work section envisions a carbon-aware extension of HEFT:
a first pass that produces the mapping and ordering while already accounting
for power, and a second pass that optimises the schedule with CaWoSched.  This
module implements the first pass as a drop-in alternative to
:func:`repro.mapping.heft.heft_mapping`:

* the rank phase is identical to HEFT (upward ranks);
* the processor-selection phase minimises a convex combination of the task's
  earliest finish time and the *energy* the task would draw on the candidate
  processor (duration × (idle + working power), normalised by the
  platform-wide maxima), controlled by ``power_weight ∈ [0, 1]``:
  ``0`` reproduces plain HEFT, ``1`` ignores finish times entirely (a
  GreenHEFT-style energy-greedy mapping).

The produced :class:`~repro.mapping.mapping.Mapping` feeds directly into
:func:`repro.mapping.enhanced_dag.build_enhanced_dag` and the CaWoSched
scheduler, realising the two-pass approach end to end (see the
``ablation_carbon_heft`` benchmark).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mapping.heft import HeftResult, _duration_table, _ListSchedule, _ranks
from repro.platform_.cluster import Cluster
from repro.utils.validation import check_probability
from repro.workflow.dag import Workflow

__all__ = ["carbon_aware_heft_mapping"]


def carbon_aware_heft_mapping(
    workflow: Workflow,
    cluster: Cluster,
    *,
    power_weight: float = 0.3,
) -> HeftResult:
    """Run the carbon-aware HEFT first pass.

    Parameters
    ----------
    workflow:
        The workflow to map.
    cluster:
        The heterogeneous compute cluster.
    power_weight:
        Weight of the energy term in the processor-selection objective
        (0 = plain HEFT, 1 = energy only).

    Returns
    -------
    HeftResult
        Mapping, start/finish times of the first-pass schedule, makespan and
        ranks — the same structure :func:`heft_mapping` returns, so the two
        passes are interchangeable in every downstream pipeline.
    """
    power_weight = check_probability(power_weight, "power_weight")
    processors = cluster.processors()
    durations = _duration_table(workflow, processors)
    ranks = _ranks(workflow, durations, len(processors))

    power = {spec.name: spec.total_power for spec in processors}
    max_active_power = max(power.values()) or 1
    # Normalise the finish-time term by a crude serial upper bound so both
    # objective terms live on comparable scales.
    slowest = min(spec.speed for spec in processors)
    horizon_scale = max(1.0, workflow.total_work() / slowest + workflow.total_data())

    schedule = _ListSchedule(workflow, processors)
    for task in schedule.priority(ranks):
        best: Optional[Tuple[float, int, int]] = None  # (score, finish, start)
        for name, duration, start, finish in schedule.candidates(task, durations[task]):
            energy = duration * power[name]
            score = (1.0 - power_weight) * (finish / horizon_scale) + power_weight * (
                energy / (horizon_scale * max_active_power)
            )
            if best is None or (score, finish, start) < best:
                best, best_name = (score, finish, start), name
        assert best is not None
        schedule.place(task, best_name, best[2], best[1])
    return schedule.result(cluster, ranks)
