"""Synthetic workflow generators.

The paper evaluates CaWoSched on four real-world nf-core workflows (atacseq,
bacass, eager, methylseq) and on scaled-up versions of them produced with
WfGen.  The real Nextflow ``.dot`` exports are not shipped with this
reproduction, so this module provides *structure-mimicking* generators for
each family: per-sample analysis pipelines (parallel chains of
category-labelled stages) that fan in to merge/report tasks — the dominant
shape of nf-core workflows.  A family generator takes the target size and
adds samples to reach it, so the scaled-up versions come from the same
generator as the small ones.  A set of generic DAG generators (chains,
fork-join, layered random, out-trees, diamonds) serves unit tests and
ablation studies.

All generators

* take an explicit RNG / seed for reproducibility,
* assign task and edge weights from normal distributions where task weights
  are in general larger than edge weights (as in the paper, §6.1),
* return a :class:`~repro.workflow.dag.Workflow`, valid by construction
  (every mutator checks its weights and acyclicity).

The public entry point for the experiment grid is :func:`generate_workflow`,
which dispatches on the family name, and :data:`WORKFLOW_FAMILIES`, the
registry of available families.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.errors import InvalidWorkflowError
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability
from repro.workflow.dag import Workflow

__all__ = [
    "assign_random_weights",
    "chain_workflow",
    "fork_join_workflow",
    "layered_random_workflow",
    "out_tree_workflow",
    "diamond_workflow",
    "random_dag_workflow",
    "independent_tasks_workflow",
    "atacseq_like_workflow",
    "methylseq_like_workflow",
    "eager_like_workflow",
    "bacass_like_workflow",
    "generate_workflow",
    "WORKFLOW_FAMILIES",
    "DEFAULT_WORK_MEAN",
    "DEFAULT_WORK_STD",
    "DEFAULT_DATA_MEAN",
    "DEFAULT_DATA_STD",
]

#: Default parameters of the weight distributions.  Task (vertex) weights are
#: drawn with a mean an order of magnitude above edge weights, mirroring the
#: paper's "vertex weights are in general larger than the edge weights".
DEFAULT_WORK_MEAN = 20.0
DEFAULT_WORK_STD = 6.0
DEFAULT_DATA_MEAN = 4.0
DEFAULT_DATA_STD = 2.0


# --------------------------------------------------------------------------- #
# Weight assignment
# --------------------------------------------------------------------------- #
def assign_random_weights(workflow: Workflow, *, rng: RNGLike = None) -> Workflow:
    """Assign normally distributed integer weights to *workflow* in place.

    Task work volumes are drawn from ``Normal(DEFAULT_WORK_MEAN,
    DEFAULT_WORK_STD)`` and edge communication volumes from
    ``Normal(DEFAULT_DATA_MEAN, DEFAULT_DATA_STD)``; both are rounded and
    clipped to be at least 1 (tasks) / 0 (edges).  The task volumes are
    drawn first, in task order, then the edge volumes, in edge order.

    Returns the workflow to allow chaining.
    """
    rng = ensure_rng(rng)
    tasks = workflow.tasks()
    works = rng.normal(DEFAULT_WORK_MEAN, DEFAULT_WORK_STD, size=len(tasks))
    for task, work in zip(tasks, works.tolist()):
        workflow.set_work(task, max(1, round(work)))
    edges = workflow.dependencies()
    volumes = rng.normal(DEFAULT_DATA_MEAN, DEFAULT_DATA_STD, size=len(edges))
    for (source, target), data in zip(edges, volumes.tolist()):
        workflow.set_data(source, target, max(0, round(data)))
    return workflow


# --------------------------------------------------------------------------- #
# Generic generators
# --------------------------------------------------------------------------- #
def chain_workflow(num_tasks: int, *, rng: RNGLike = None) -> Workflow:
    """Return a linear chain ``t0 -> t1 -> ... -> t(n-1)``."""
    num_tasks = check_positive_int(num_tasks, "num_tasks")
    wf = Workflow(f"chain-{num_tasks}")
    for i in range(num_tasks):
        wf.add_task(f"t{i}", work=1, category="chain")
    for i in range(num_tasks - 1):
        wf.add_dependency(f"t{i}", f"t{i + 1}", data=0)
    assign_random_weights(wf, rng=rng)
    return wf


def fork_join_workflow(
    width: int,
    *,
    stages: int = 1,
    rng: RNGLike = None,
    name: str = "forkjoin",
) -> Workflow:
    """Return a fork-join workflow.

    One source task forks into *width* parallel branches; each branch is a
    chain of *stages* tasks; all branches join into one sink task.  This is
    the classical bag-of-chains shape of embarrassingly parallel analyses.
    """
    width = check_positive_int(width, "width")
    stages = check_positive_int(stages, "stages")
    wf = Workflow(f"{name}-{width}x{stages}")
    wf.add_task("source", work=1, category="fork")
    wf.add_task("sink", work=1, category="join")
    for b in range(width):
        previous = "source"
        for s in range(stages):
            task = f"b{b}_s{s}"
            wf.add_task(task, work=1, category="branch")
            wf.add_dependency(previous, task, data=0)
            previous = task
        wf.add_dependency(previous, "sink", data=0)
    assign_random_weights(wf, rng=rng)
    return wf


def layered_random_workflow(
    num_tasks: int,
    *,
    num_layers: Optional[int] = None,
    edge_probability: float = 0.3,
    rng: RNGLike = None,
) -> Workflow:
    """Return a layered random DAG.

    Tasks are distributed over layers; every task (except those in the first
    layer) receives at least one predecessor from the immediately preceding
    layer, and additional edges from earlier layers are added independently
    with probability *edge_probability*.  This produces DAGs with tunable
    width/depth and realistic fan-in, a standard model for synthetic
    scheduling benchmarks.
    """
    num_tasks = check_positive_int(num_tasks, "num_tasks")
    check_probability(edge_probability, "edge_probability")
    rng = ensure_rng(rng)
    if num_layers is None:
        num_layers = max(2, int(round(math.sqrt(num_tasks))))
    num_layers = min(check_positive_int(num_layers, "num_layers"), num_tasks)

    # Distribute tasks over layers (every layer non-empty).
    counts = np.full(num_layers, num_tasks // num_layers, dtype=int)
    counts[: num_tasks % num_layers] += 1
    layers: List[List[str]] = []
    index = 0
    for layer_id, count in enumerate(counts):
        layer = [f"t{index + k}" for k in range(int(count))]
        layers.append(layer)
        index += int(count)

    wf = Workflow(f"layered-{num_tasks}")
    for layer_id, layer in enumerate(layers):
        for task in layer:
            wf.add_task(task, work=1, category=f"layer{layer_id}")

    for layer_id in range(1, num_layers):
        previous_layer = layers[layer_id - 1]
        for task in layers[layer_id]:
            # Guaranteed predecessor keeps the DAG connected layer to layer.
            anchor = previous_layer[int(rng.integers(0, len(previous_layer)))]
            wf.add_dependency(anchor, task, data=0)
            # Optional extra edges from any earlier layer.
            for earlier in range(layer_id):
                for candidate in layers[earlier]:
                    if candidate == anchor:
                        continue
                    if rng.random() < edge_probability / (layer_id - earlier):
                        if not wf.has_dependency(candidate, task):
                            wf.add_dependency(candidate, task, data=0)
    assign_random_weights(wf, rng=rng)
    return wf


def out_tree_workflow(depth: int, branching: int = 2, *, rng: RNGLike = None) -> Workflow:
    """Return a complete out-tree (data distribution pattern) of given depth."""
    depth = check_positive_int(depth, "depth")
    branching = check_positive_int(branching, "branching")
    wf = Workflow(f"outtree-d{depth}b{branching}")
    wf.add_task("n0", work=1, category="root")
    frontier = ["n0"]
    counter = 1
    for _ in range(depth - 1):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = f"n{counter}"
                counter += 1
                wf.add_task(child, work=1, category="tree")
                wf.add_dependency(parent, child, data=0)
                new_frontier.append(child)
        frontier = new_frontier
    assign_random_weights(wf, rng=rng)
    return wf


def diamond_workflow(width: int, *, rng: RNGLike = None) -> Workflow:
    """Return a single diamond: source -> *width* parallel tasks -> sink."""
    return fork_join_workflow(width, stages=1, rng=rng, name="diamond")


def random_dag_workflow(
    num_tasks: int,
    *,
    edge_probability: float = 0.15,
    rng: RNGLike = None,
) -> Workflow:
    """Return an ordered Erdős–Rényi random DAG.

    Tasks are totally ordered ``t0 < t1 < ...`` and each forward pair is
    connected independently with probability *edge_probability*.
    """
    num_tasks = check_positive_int(num_tasks, "num_tasks")
    check_probability(edge_probability, "edge_probability")
    rng = ensure_rng(rng)
    wf = Workflow(f"randomdag-{num_tasks}")
    for i in range(num_tasks):
        wf.add_task(f"t{i}", work=1, category="random")
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            if rng.random() < edge_probability:
                wf.add_dependency(f"t{i}", f"t{j}", data=0)
    assign_random_weights(wf, rng=rng)
    return wf


def independent_tasks_workflow(
    num_tasks: int,
    *,
    works: Optional[Sequence[int]] = None,
    rng: RNGLike = None,
) -> Workflow:
    """Return a workflow of independent tasks (no edges).

    Used by the NP-hardness (3-Partition) construction and by unit tests.  If
    *works* is given it must have length *num_tasks* and is used verbatim,
    otherwise random weights are drawn.
    """
    num_tasks = check_positive_int(num_tasks, "num_tasks")
    wf = Workflow(f"independent-{num_tasks}")
    for i in range(num_tasks):
        wf.add_task(f"t{i}", work=1, category="independent")
    if works is not None:
        if len(works) != num_tasks:
            raise InvalidWorkflowError(
                f"expected {num_tasks} work values, got {len(works)}"
            )
        for i, w in enumerate(works):
            wf.set_work(f"t{i}", int(w))
    else:
        assign_random_weights(wf, rng=rng)
    return wf


# --------------------------------------------------------------------------- #
# Scientific-workflow family generators (nf-core lookalikes)
# --------------------------------------------------------------------------- #
def _pipeline_family(
    name: str,
    stages: Sequence[str],
    num_samples: int,
    *,
    merge_stages: Sequence[str],
    rng: RNGLike = None,
    per_sample_fanout: int = 1,
) -> Workflow:
    """Build a per-sample pipeline with shared merge/report tasks.

    Each sample runs the given *stages* as a chain (optionally fanned out into
    ``per_sample_fanout`` parallel sub-branches after the first stage, e.g.
    per-lane processing); the last per-sample task feeds every merge stage,
    and merge stages form a chain themselves (e.g. consensus -> multiqc).
    """
    num_samples = check_positive_int(num_samples, "num_samples")
    per_sample_fanout = check_positive_int(per_sample_fanout, "per_sample_fanout")
    wf = Workflow(f"{name}-{num_samples}s")
    wf.add_task("input_check", work=1, category="setup")

    sample_outputs: List[str] = []
    for sample in range(num_samples):
        first_stage = stages[0]
        first_task = f"s{sample}_{first_stage}"
        wf.add_task(first_task, work=1, category=first_stage)
        wf.add_dependency("input_check", first_task, data=1)

        branch_tails: List[str] = []
        for branch in range(per_sample_fanout):
            previous = first_task
            for stage in stages[1:]:
                suffix = f"_l{branch}" if per_sample_fanout > 1 else ""
                task = f"s{sample}_{stage}{suffix}"
                wf.add_task(task, work=1, category=stage)
                wf.add_dependency(previous, task, data=1)
                previous = task
            branch_tails.append(previous)

        if per_sample_fanout > 1:
            collect = f"s{sample}_collect"
            wf.add_task(collect, work=1, category="collect")
            for tail in branch_tails:
                wf.add_dependency(tail, collect, data=1)
            sample_outputs.append(collect)
        else:
            sample_outputs.append(branch_tails[0])

    previous_merge: Optional[str] = None
    for stage in merge_stages:
        wf.add_task(stage, work=1, category="merge")
        for output in sample_outputs:
            wf.add_dependency(output, stage, data=1)
        if previous_merge is not None:
            wf.add_dependency(previous_merge, stage, data=1)
        previous_merge = stage

    assign_random_weights(wf, rng=rng)
    return wf


#: Per-sample stage chains of the four nf-core-like families.  The stage names
#: follow the real pipelines loosely; what matters for scheduling is the shape
#: (chain length, fan-out, number of merge stages).
_FAMILY_STAGES: Dict[str, Dict[str, Sequence[str]]] = {
    "atacseq": {
        "stages": ("fastqc", "trim", "align", "filter", "call_peaks"),
        "merge": ("consensus_peaks", "annotate", "multiqc"),
    },
    "methylseq": {
        "stages": ("fastqc", "trim", "bismark_align", "deduplicate", "methylation_extract"),
        "merge": ("bismark_summary", "multiqc"),
    },
    "eager": {
        "stages": ("fastqc", "adapter_removal", "map", "damage_profile", "genotype"),
        "merge": ("multivcf", "report"),
    },
    "bacass": {
        "stages": ("fastqc", "trim", "assemble", "polish", "annotate"),
        "merge": ("quast", "multiqc"),
    },
}


def _samples_for_target(family: str, num_tasks: int, fanout: int) -> int:
    """Return the number of samples so the family has roughly *num_tasks* tasks."""
    spec = _FAMILY_STAGES[family]
    stages = spec["stages"]
    per_sample = 1 + (len(stages) - 1) * fanout + (1 if fanout > 1 else 0)
    fixed = 1 + len(spec["merge"])  # input_check + merge stages
    return max(1, int(round((num_tasks - fixed) / per_sample)))


def atacseq_like_workflow(num_tasks: int = 200, *, rng: RNGLike = None) -> Workflow:
    """Return a workflow resembling the nf-core *atacseq* pipeline.

    Per-sample chains (QC, trimming, alignment, filtering, peak calling) with
    two parallel lanes per sample, joined by consensus-peak, annotation and
    MultiQC merge stages.
    """
    fanout = 2
    samples = _samples_for_target("atacseq", num_tasks, fanout)
    spec = _FAMILY_STAGES["atacseq"]
    return _pipeline_family(
        "atacseq", spec["stages"], samples, merge_stages=spec["merge"], rng=rng,
        per_sample_fanout=fanout,
    )


def methylseq_like_workflow(num_tasks: int = 200, *, rng: RNGLike = None) -> Workflow:
    """Return a workflow resembling the nf-core *methylseq* pipeline."""
    fanout = 1
    samples = _samples_for_target("methylseq", num_tasks, fanout)
    spec = _FAMILY_STAGES["methylseq"]
    return _pipeline_family(
        "methylseq", spec["stages"], samples, merge_stages=spec["merge"], rng=rng,
        per_sample_fanout=fanout,
    )


def eager_like_workflow(num_tasks: int = 200, *, rng: RNGLike = None) -> Workflow:
    """Return a workflow resembling the nf-core *eager* (ancient DNA) pipeline."""
    fanout = 2
    samples = _samples_for_target("eager", num_tasks, fanout)
    spec = _FAMILY_STAGES["eager"]
    return _pipeline_family(
        "eager", spec["stages"], samples, merge_stages=spec["merge"], rng=rng,
        per_sample_fanout=fanout,
    )


def bacass_like_workflow(num_tasks: int = 60, *, rng: RNGLike = None) -> Workflow:
    """Return a workflow resembling the nf-core *bacass* (bacterial assembly) pipeline.

    The paper uses only the real-world-sized bacass instance (no scaling), so
    the default size is small.
    """
    fanout = 1
    samples = _samples_for_target("bacass", num_tasks, fanout)
    spec = _FAMILY_STAGES["bacass"]
    return _pipeline_family(
        "bacass", spec["stages"], samples, merge_stages=spec["merge"], rng=rng,
        per_sample_fanout=fanout,
    )


#: Registry of workflow families available to :func:`generate_workflow` and to
#: the experiment grid.  Keys are the family names used throughout the
#: benchmarks; values build a workflow of roughly the requested size.
WORKFLOW_FAMILIES: Dict[str, Callable[..., Workflow]] = {
    "atacseq": atacseq_like_workflow,
    "methylseq": methylseq_like_workflow,
    "eager": eager_like_workflow,
    "bacass": bacass_like_workflow,
    "layered": lambda num_tasks=200, *, rng=None: layered_random_workflow(num_tasks, rng=rng),
    "forkjoin": lambda num_tasks=200, *, rng=None: fork_join_workflow(
        max(1, (num_tasks - 2) // 4), stages=4, rng=rng
    ),
    "chain": lambda num_tasks=200, *, rng=None: chain_workflow(num_tasks, rng=rng),
    "random": lambda num_tasks=200, *, rng=None: random_dag_workflow(num_tasks, rng=rng),
}


def generate_workflow(family: str, num_tasks: int = 200, *, rng: RNGLike = None) -> Workflow:
    """Generate a workflow of the given *family* with roughly *num_tasks* tasks.

    Parameters
    ----------
    family:
        One of the keys of :data:`WORKFLOW_FAMILIES`.
    num_tasks:
        Target number of tasks.  Family generators hit the target
        approximately (per-sample granularity), generic generators exactly.
    rng:
        Seed or generator for reproducibility.

    Raises
    ------
    InvalidWorkflowError
        If the family name is unknown.
    """
    if family not in WORKFLOW_FAMILIES:
        known = ", ".join(sorted(WORKFLOW_FAMILIES))
        raise InvalidWorkflowError(f"unknown workflow family {family!r}; known: {known}")
    return WORKFLOW_FAMILIES[family](num_tasks, rng=rng)
