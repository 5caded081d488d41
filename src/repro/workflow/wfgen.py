"""WfGen-style scaling of a model workflow.

The paper scales each real-world workflow up to target sizes between 200 and
30,000 tasks using the WfGen generator from WfCommons: a *model graph* is
analysed and a larger instance with the same structural signature is emitted.
This module reproduces that role with a simpler but behaviour-preserving
mechanism:

* :func:`replicate_workflow` clones the model ``k`` times (renaming tasks per
  replica), attaches all replicas to a shared staging source and a shared
  collect sink, and redraws the weights — this preserves the width/depth
  signature of the model while multiplying the amount of exploitable
  task-level parallelism, which is exactly what scaling the number of samples
  in an nf-core pipeline does.
* :func:`scale_workflow` picks the replica count that best approximates a
  requested task count and optionally trims surplus leaf tasks to hit the
  target exactly.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.utils.errors import InvalidWorkflowError
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive_int
from repro.workflow.dag import Workflow
from repro.workflow.generators import (
    DEFAULT_DATA_MEAN,
    DEFAULT_DATA_STD,
    DEFAULT_WORK_MEAN,
    DEFAULT_WORK_STD,
    assign_random_weights,
)

__all__ = ["replicate_workflow", "scale_workflow"]


def replicate_workflow(
    model: Workflow,
    replicas: int,
    *,
    rng: RNGLike = None,
    name: Optional[str] = None,
    reweight: bool = True,
) -> Workflow:
    """Return a workflow containing *replicas* renamed copies of *model*.

    All replicas hang off a shared ``staging`` source task and feed a shared
    ``collect`` sink task, so the result is a single connected DAG whose
    internal structure repeats the model's.

    Parameters
    ----------
    model:
        The model workflow to replicate.  It is not modified.
    replicas:
        Number of copies (positive).
    rng:
        Seed or generator used to redraw weights when *reweight* is true.
    name:
        Name of the produced workflow; defaults to ``"<model>-x<replicas>"``.
    reweight:
        If true (default), redraw all task and edge weights from the library's
        default normal distributions; if false, copy the model's weights.
    """
    replicas = check_positive_int(replicas, "replicas")
    if model.number_of_tasks == 0:
        raise InvalidWorkflowError("cannot replicate an empty workflow")
    rng = ensure_rng(rng)

    result = Workflow(name if name is not None else f"{model.name}-x{replicas}")
    result.add_task("staging", work=1, category="setup")
    result.add_task("collect", work=1, category="merge")

    for replica in range(replicas):
        prefix = f"r{replica}:"
        for task in model.tasks():
            result.add_task(
                f"{prefix}{task}",
                work=model.work(task),
                category=model.category(task),
            )
        for source, target in model.dependencies():
            result.add_dependency(
                f"{prefix}{source}", f"{prefix}{target}", data=model.data(source, target)
            )
        for source in model.sources():
            result.add_dependency("staging", f"{prefix}{source}", data=1)
        for sink in model.sinks():
            result.add_dependency(f"{prefix}{sink}", "collect", data=1)

    if reweight:
        assign_random_weights(
            result,
            rng=rng,
            work_mean=DEFAULT_WORK_MEAN,
            work_std=DEFAULT_WORK_STD,
            data_mean=DEFAULT_DATA_MEAN,
            data_std=DEFAULT_DATA_STD,
        )
    return result


def scale_workflow(
    model: Workflow,
    target_tasks: int,
    *,
    rng: RNGLike = None,
    name: Optional[str] = None,
    exact: bool = False,
) -> Workflow:
    """Scale *model* up (or down) to roughly *target_tasks* tasks.

    The replica count is chosen as ``max(1, round(target / |model|))``.  When
    *exact* is true, surplus tasks are removed greedily from the sinks of the
    last replica (reconnecting their predecessors to the collect task) until
    the task count matches exactly; when the target is below the size of a
    single replica plus the two glue tasks, the result keeps one replica and
    is trimmed as far as structurally possible.

    Parameters
    ----------
    model:
        The model workflow.
    target_tasks:
        Desired number of tasks (positive).
    rng, name:
        See :func:`replicate_workflow`.
    exact:
        Trim to the exact target when possible.
    """
    target_tasks = check_positive_int(target_tasks, "target_tasks")
    base = model.number_of_tasks
    if base == 0:
        raise InvalidWorkflowError("cannot scale an empty workflow")
    replicas = max(1, int(round((target_tasks - 2) / base)))
    scaled = replicate_workflow(model, replicas, rng=rng, name=name)

    if not exact:
        return scaled

    # Trim surplus tasks: repeatedly drop a sink-adjacent task from the last
    # replica, reconnecting predecessors to keep the DAG connected.
    surplus = scaled.number_of_tasks - target_tasks
    if surplus <= 0:
        return scaled
    removable: List[Hashable] = [
        task for task in scaled.tasks() if str(task).startswith(f"r{replicas - 1}:")
    ]
    # Remove in reverse topological order so we always drop current leaves of
    # the replica first and never disconnect upstream structure.
    order = scaled.topological_order()
    removable_sorted = [t for t in reversed(order) if t in set(removable)]
    for task in removable_sorted:
        if surplus == 0:
            break
        scaled.remove_task(task, reconnect=True)
        surplus -= 1
    return scaled
