"""Workflow (DAG) substrate: the DAG model and its generators.

Public surface:

* :class:`~repro.workflow.dag.Workflow` (a task is a name with a work volume
  and an optional category)
* generators for generic DAG shapes and nf-core-like families
  (:func:`~repro.workflow.generators.generate_workflow`,
  :data:`~repro.workflow.generators.WORKFLOW_FAMILIES`); a family's
  workflow of any size comes from ``generate_workflow(family, n)``
"""

from repro.utils.lazy import _lazy_exports

__all__ = [
    "Workflow",
    "WORKFLOW_FAMILIES",
    "assign_random_weights",
    "atacseq_like_workflow",
    "bacass_like_workflow",
    "chain_workflow",
    "eager_like_workflow",
    "fork_join_workflow",
    "generate_workflow",
    "layered_random_workflow",
    "methylseq_like_workflow",
    "random_dag_workflow",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workflow.dag": ("Workflow",),
        "repro.workflow.generators": (
            "WORKFLOW_FAMILIES",
            "assign_random_weights",
            "atacseq_like_workflow",
            "bacass_like_workflow",
            "chain_workflow",
            "eager_like_workflow",
            "fork_join_workflow",
            "generate_workflow",
            "layered_random_workflow",
            "methylseq_like_workflow",
            "random_dag_workflow",
        ),
    },
)
