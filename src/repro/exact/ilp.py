"""Exact integer linear program for the general problem (§4.3 / Appendix A.4).

The paper formulates the problem with start/end/running indicator variables
per (task, time unit) plus green/brown power variables per time unit and
solves it with Gurobi.  Gurobi is not available offline, so this module uses
``scipy.optimize.milp`` (the HiGHS solver) with a *compact but equivalent*
formulation:

* binaries ``s_{v,t}`` for every task ``v`` and admissible start time ``t``
  (one per time unit in ``[0, T − ω(v)]``), with ``Σ_t s_{v,t} = 1``;
* continuous brown-power variables ``b_t ≥ 0`` per time unit;
* precedence constraints ``Σ_t t·s_{v,t} − Σ_t t·s_{u,t} ≥ ω(u)`` per edge
  ``(u, v)`` of the communication-enhanced DAG;
* power constraints
  ``Σ_v P_work(v) · Σ_{τ ∈ (t−ω(v), t]} s_{v,τ} − b_t ≤ G_t − ΣP_idle``
  per time unit ``t`` (the running indicator ``r_{v,t}`` of the paper is the
  inner sum — it never needs to be a separate variable);
* objective ``min Σ_t b_t``.

Because the brown variables only appear with positive objective coefficients,
``b_t`` takes the value ``max(power_t − G_t, 0)`` at any optimum, which is
exactly the paper's carbon cost; the big-M constructions of the paper's
formulation are therefore unnecessary.  The feasible start-time sets and the
optimum value coincide with the paper's model.

For reference and documentation, :func:`build_ilp` also returns the assembled
matrices so that the model can be exported or inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Tuple

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import SolverError

if TYPE_CHECKING:
    from scipy.optimize import Bounds, LinearConstraint

__all__ = ["IlpModel", "build_ilp", "ilp_optimal"]


@dataclass
class IlpModel:
    """The assembled MILP in matrix form.

    Attributes
    ----------
    objective:
        Objective coefficient vector ``c`` (minimise ``cᵀx``).
    constraints:
        List of :class:`scipy.optimize.LinearConstraint` blocks.
    integrality:
        Per-variable integrality flags (1 = integer, 0 = continuous).
    bounds:
        Variable bounds.
    start_index:
        ``(task, start time) → column`` of the start binaries.
    brown_index:
        ``time unit → column`` of the brown-power variables.
    num_variables:
        Total number of columns.
    """

    objective: np.ndarray
    constraints: List[LinearConstraint]
    integrality: np.ndarray
    bounds: Bounds
    start_index: Dict[Tuple[Hashable, int], int]
    brown_index: Dict[int, int]
    num_variables: int


def build_ilp(instance: ProblemInstance) -> IlpModel:
    """Assemble the MILP for *instance* (without solving it)."""
    # scipy is imported here, not at module level, so that `import repro`
    # does not pay for it.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    dag = instance.dag
    horizon = instance.deadline
    nodes = dag.nodes()
    budgets = instance.profile.budgets_per_time_unit()
    idle_total = instance.total_idle_power()

    # ----------------------------------------------------------------- #
    # Column layout: start binaries first, then brown variables.
    # ----------------------------------------------------------------- #
    start_index: Dict[Tuple[Hashable, int], int] = {}
    column = 0
    for node in nodes:
        latest = horizon - dag.duration(node)
        if latest < 0:
            raise SolverError(
                f"task {node!r} does not fit into the horizon {horizon}"
            )
        for start in range(latest + 1):
            start_index[(node, start)] = column
            column += 1
    brown_index: Dict[int, int] = {}
    for t in range(horizon):
        brown_index[t] = column
        column += 1
    num_variables = column

    objective = np.zeros(num_variables)
    for t in range(horizon):
        objective[brown_index[t]] = 1.0

    integrality = np.zeros(num_variables)
    lower = np.zeros(num_variables)
    upper = np.full(num_variables, np.inf)
    for key, col in start_index.items():
        integrality[col] = 1
        upper[col] = 1.0
    bounds = Bounds(lower, upper)

    constraints: List[LinearConstraint] = []

    # ----------------------------------------------------------------- #
    # 1. Every task starts exactly once.
    # ----------------------------------------------------------------- #
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for row, node in enumerate(nodes):
        latest = horizon - dag.duration(node)
        for start in range(latest + 1):
            rows.append(row)
            cols.append(start_index[(node, start)])
            data.append(1.0)
    assignment_matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(nodes), num_variables)
    )
    ones = np.ones(len(nodes))
    constraints.append(LinearConstraint(assignment_matrix, ones, ones))

    # ----------------------------------------------------------------- #
    # 2. Precedence: start(v) − start(u) ≥ ω(u) for every edge (u, v).
    # ----------------------------------------------------------------- #
    edges = dag.edges()
    if edges:
        rows, cols, data = [], [], []
        lower_bounds = []
        for row, (source, target) in enumerate(edges):
            for start in range(horizon - dag.duration(target) + 1):
                rows.append(row)
                cols.append(start_index[(target, start)])
                data.append(float(start))
            for start in range(horizon - dag.duration(source) + 1):
                rows.append(row)
                cols.append(start_index[(source, start)])
                data.append(-float(start))
            lower_bounds.append(float(dag.duration(source)))
        precedence_matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(edges), num_variables)
        )
        constraints.append(
            LinearConstraint(precedence_matrix, np.array(lower_bounds), np.inf)
        )

    # ----------------------------------------------------------------- #
    # 3. Power: Σ_v P_work(v)·r_{v,t} − b_t ≤ G_t − ΣP_idle per time unit.
    # ----------------------------------------------------------------- #
    rows, cols, data = [], [], []
    upper_bounds = []
    for t in range(horizon):
        for node in nodes:
            duration = dag.duration(node)
            work_power = dag.processor_spec(node).p_work
            if work_power == 0:
                continue
            earliest_start = max(0, t - duration + 1)
            latest_start = min(t, horizon - duration)
            for start in range(earliest_start, latest_start + 1):
                rows.append(t)
                cols.append(start_index[(node, start)])
                data.append(float(work_power))
        rows.append(t)
        cols.append(brown_index[t])
        data.append(-1.0)
        upper_bounds.append(float(int(budgets[t]) - idle_total))
    power_matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(horizon, num_variables)
    )
    constraints.append(LinearConstraint(power_matrix, -np.inf, np.array(upper_bounds)))

    return IlpModel(
        objective=objective,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        start_index=start_index,
        brown_index=brown_index,
        num_variables=num_variables,
    )


def ilp_optimal(instance: ProblemInstance) -> Schedule:
    """Solve *instance* to proven optimality and return the optimal schedule.

    Parameters
    ----------
    instance:
        The problem instance.  The model size is pseudo-polynomial in the
        deadline, so this is intended for small instances (as in the paper).

    Raises
    ------
    SolverError
        If HiGHS does not prove an integer solution optimal.
    """
    from scipy.optimize import milp

    model = build_ilp(instance)
    result = milp(
        c=model.objective,
        constraints=model.constraints,
        integrality=model.integrality,
        bounds=model.bounds,
    )
    if result.x is None or result.status != 0:
        raise SolverError(f"MILP solver failed: {result.message}")

    # Decode the start binaries into start times (pick the argmax per task).
    starts: Dict[Hashable, int] = {}
    dag = instance.dag
    for node in dag.nodes():
        best_value = -1.0
        best_start = 0
        latest = instance.deadline - dag.duration(node)
        for start in range(latest + 1):
            value = result.x[model.start_index[(node, start)]]
            if value > best_value:
                best_value = value
                best_start = start
        starts[node] = best_start
    return Schedule(instance, starts, algorithm="ILP")
