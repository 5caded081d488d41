"""Task scores of the greedy CaWoSched variants.

Four scores are defined in §5.2 of the paper; each induces the order in which
the greedy algorithm picks tasks:

* **slack** — ``s(v) = LST(v) − EST(v)``; tasks are processed in
  *non-decreasing* slack order (tight tasks first).
* **pressure** — ``ρ(v) = ω(v) / (s(v) + ω(v)) ∈ [0, 1]``; tasks are processed
  in *non-increasing* pressure order (a pressure of 1 means no flexibility).
* **weighted slack / weighted pressure** — the same scores multiplied by a
  factor reflecting the power draw of the processor the task is mapped to:
  ``wf(i) = (P_idle^i + P_work^i) / max_j (P_idle^j + P_work^j)``.
  Pressure is multiplied by ``wf`` and slack by its reciprocal, so that in
  both cases tasks on power-hungry processors move towards the front of the
  order.

The rows the four orders share (nodes, durations, weight factors, the
topological positions that break ties) are built once per DAG as plain
tuples: a DAG has a few dozen nodes, too few for NumPy's per-call cost to
pay off.  Each score is computed in ``float`` arithmetic, as IEEE
doubles, so it is the value a ``float64`` row would hold.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import math

from repro.mapping.enhanced_dag import EnhancedDAG
from repro.utils.errors import CaWoSchedError

__all__ = [
    "SCORE_SLACK",
    "SCORE_PRESSURE",
    "weight_factors",
    "slack_scores",
    "pressure_scores",
    "compute_scores",
    "task_order",
]

#: Base score identifiers.
SCORE_SLACK = "slack"
SCORE_PRESSURE = "pressure"


def weight_factors(dag: EnhancedDAG) -> Dict[Hashable, float]:
    """Return the weighting factor ``wf`` of every node of *dag*.

    The factor of a node is the total (idle + working) power of its processor
    divided by the maximum total power over all processors of the extended
    platform, hence lies in ``(0, 1]``.
    """
    nodes, _, factors = _score_rows(dag)
    return dict(zip(nodes, factors))


def _score_rows(dag: EnhancedDAG) -> Tuple[tuple, Tuple[float, ...], Tuple[float, ...]]:
    """Return *dag*'s nodes with their durations and weight factors as tuples."""

    def _build():
        nodes = tuple(dag.nodes())
        # Powers are looked up once per processor and broadcast to its nodes.
        power_of = {spec.name: float(spec.total_power) for spec in dag.platform.processors()}
        max_power = max(power_of.values())
        if max_power > 0:
            factors = tuple(power_of[dag.processor(node)] / max_power for node in nodes)
        else:
            # Degenerate platform (all powers zero): weighting has no effect.
            factors = (1.0,) * len(nodes)
        return nodes, tuple(float(dag.duration(node)) for node in nodes), factors

    return dag._memoised("score_rows", _build)


def slack_scores(
    dag: EnhancedDAG,
    est: Dict[Hashable, int],
    lst: Dict[Hashable, int],
    *,
    weighted: bool = False,
) -> Dict[Hashable, float]:
    """Return the (optionally weighted) slack score of every node."""
    nodes, _, factor_row = _score_rows(dag)
    slack = {}
    for node, factor in zip(nodes, factor_row):
        value = float(lst[node] - est[node])
        # Reciprocal weighting: power-hungry processors (factor close to 1)
        # keep their slack, light processors get their slack inflated and
        # therefore move towards the back of the non-decreasing order.
        slack[node] = value / factor if weighted and factor > 0 else value
    return slack


def pressure_scores(
    dag: EnhancedDAG,
    est: Dict[Hashable, int],
    lst: Dict[Hashable, int],
    *,
    weighted: bool = False,
) -> Dict[Hashable, float]:
    """Return the (optionally weighted) pressure score of every node."""
    nodes, duration, factor_row = _score_rows(dag)
    pressure = {}
    for node, work, factor in zip(nodes, duration, factor_row):
        total = float(lst[node] - est[node]) + work
        # A task with no duration and no slack has pressure 0 / 0: NaN.
        value = work / total if total else math.nan
        pressure[node] = value * factor if weighted else value
    return pressure


def compute_scores(
    dag: EnhancedDAG,
    est: Dict[Hashable, int],
    lst: Dict[Hashable, int],
    *,
    base: str,
    weighted: bool = False,
) -> Dict[Hashable, float]:
    """Return the scores for the given *base* (``"slack"`` or ``"pressure"``)."""
    if base == SCORE_SLACK:
        return slack_scores(dag, est, lst, weighted=weighted)
    if base == SCORE_PRESSURE:
        return pressure_scores(dag, est, lst, weighted=weighted)
    raise CaWoSchedError(f"unknown base score {base!r}")


def task_order(
    dag: EnhancedDAG,
    scores: Dict[Hashable, float],
    *,
    base: str,
) -> List[Hashable]:
    """Return the greedy processing order induced by *scores*.

    Slack-based variants sort by non-decreasing score, pressure-based variants
    by non-increasing score.  Ties are broken deterministically by the
    topological position of the task, so equal-score tasks are handled in
    precedence order.
    """
    position = dag._position
    if base == SCORE_SLACK:
        return sorted(dag.nodes(), key=lambda node: (scores[node], position[node]))
    if base == SCORE_PRESSURE:
        return sorted(dag.nodes(), key=lambda node: (-scores[node], position[node]))
    raise CaWoSchedError(f"unknown base score {base!r}")
