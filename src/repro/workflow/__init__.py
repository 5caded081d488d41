"""Workflow (DAG) substrate: tasks, DAG model, generators, analysis.

Public surface:

* :class:`~repro.workflow.task.Task`, :class:`~repro.workflow.task.CommTask`
* :class:`~repro.workflow.dag.Workflow`
* generators for generic DAG shapes and nf-core-like families
  (:func:`~repro.workflow.generators.generate_workflow`,
  :data:`~repro.workflow.generators.WORKFLOW_FAMILIES`)
* WfGen-style scaling (:func:`~repro.workflow.wfgen.scale_workflow`)
* structural analysis (:func:`~repro.workflow.analysis.workflow_stats`)
"""

from repro.workflow.task import CommTask, Task
from repro.workflow.dag import Workflow
from repro.workflow.generators import (
    WORKFLOW_FAMILIES,
    assign_random_weights,
    atacseq_like_workflow,
    bacass_like_workflow,
    chain_workflow,
    diamond_workflow,
    eager_like_workflow,
    fork_join_workflow,
    generate_workflow,
    independent_tasks_workflow,
    layered_random_workflow,
    methylseq_like_workflow,
    out_tree_workflow,
    random_dag_workflow,
)
from repro.workflow.wfgen import replicate_workflow, scale_workflow
from repro.workflow.analysis import WorkflowStats, size_class, width_profile, workflow_stats

__all__ = [
    "Task",
    "CommTask",
    "Workflow",
    "WORKFLOW_FAMILIES",
    "assign_random_weights",
    "atacseq_like_workflow",
    "bacass_like_workflow",
    "chain_workflow",
    "diamond_workflow",
    "eager_like_workflow",
    "fork_join_workflow",
    "generate_workflow",
    "independent_tasks_workflow",
    "layered_random_workflow",
    "methylseq_like_workflow",
    "out_tree_workflow",
    "random_dag_workflow",
    "replicate_workflow",
    "scale_workflow",
    "WorkflowStats",
    "size_class",
    "width_profile",
    "workflow_stats",
]
