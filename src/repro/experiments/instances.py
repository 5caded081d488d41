"""Instance generation for the experiment grid.

The paper's evaluation grid is the Cartesian product of

* 34 workflows (4 real nf-core workflows plus scaled versions, 200–30,000
  tasks),
* 2 clusters (small: 72 nodes, large: 144 nodes),
* 4 green-power scenarios (S1–S4), and
* 4 deadlines (1×, 1.5×, 2×, 3× the ASAP makespan ``D``),

for 1,088 simulations per algorithm.  This module reproduces the grid at a
configurable (by default laptop-sized) scale: the same families, scenarios and
deadline factors, with smaller workflows and scaled-down clusters.  Every cell
of the grid is generated deterministically from a master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.carbon.scenarios import DEFAULT_NUM_INTERVALS, SCENARIOS, generate_power_profile
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.cluster import Cluster
from repro.platform_.presets import CLUSTER_PRESETS, cluster_preset, single_processor_cluster
from repro.schedule.asap import asap_makespan
from repro.schedule.instance import ProblemInstance
from repro.utils.rng import RNGLike, derive_rng
from repro.workflow.dag import Workflow
from repro.workflow.generators import WORKFLOW_FAMILIES, generate_workflow

__all__ = [
    "InstanceSpec",
    "build_instance",
    "make_instance",
    "default_grid",
    "single_processor_instance",
    "DEFAULT_DEADLINE_FACTORS",
    "DEFAULT_SCENARIOS",
    "DEFAULT_FAMILIES",
]

#: Shortest average profile interval, in time units (see :func:`build_instance`).
MIN_INTERVAL_LENGTH = 8

#: The paper's deadline factors (×D).
DEFAULT_DEADLINE_FACTORS: Tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
#: The paper's power-profile scenarios.
DEFAULT_SCENARIOS: Tuple[str, ...] = ("S1", "S2", "S3", "S4")
#: The workflow families of the paper's evaluation.
DEFAULT_FAMILIES: Tuple[str, ...] = ("atacseq", "methylseq", "eager", "bacass")


@dataclass(frozen=True)
class InstanceSpec:
    """Description of one cell of the experiment grid.

    Attributes
    ----------
    family:
        Workflow family name (see
        :data:`repro.workflow.generators.WORKFLOW_FAMILIES`).
    num_tasks:
        Target workflow size.
    cluster:
        A cluster preset name (a key of
        :data:`~repro.platform_.presets.CLUSTER_PRESETS`): ``"small"`` or
        ``"large"`` (scaled-down), or ``"single"``.
    scenario:
        Green-power scenario (``"S1"``–``"S4"``).
    deadline_factor:
        Deadline as a multiple of the ASAP makespan ``D``.
    seed:
        Master seed of this cell.
    nodes_per_type:
        Nodes per processor type of the scaled clusters (ignored for
        ``"single"``).
    """

    family: str
    num_tasks: int
    cluster: str
    scenario: str
    deadline_factor: float
    seed: int = 0
    nodes_per_type: Optional[int] = None

    @property
    def label(self) -> str:
        """Human-readable instance label."""
        return (
            f"{self.family}-{self.num_tasks}-{self.cluster}-{self.scenario}"
            f"-d{self.deadline_factor:g}"
        )

    def validate(self) -> None:
        """Raise :class:`ValueError` unless :func:`make_instance` can build this cell.

        The one check of a spec that comes from outside (CLI arguments, batch
        entries): known family, cluster and scenario names, a positive size
        and ``nodes_per_type``, a deadline factor of at least 1 and a
        non-negative seed.
        """
        for key, value, known in (
            ("family", self.family, WORKFLOW_FAMILIES),
            ("cluster", self.cluster, CLUSTER_PRESETS),
            ("scenario", self.scenario, SCENARIOS),
        ):
            if value not in known:
                raise ValueError(f"unknown {key} {value!r}; known: {', '.join(sorted(known))}")
        if self.num_tasks <= 0:
            raise ValueError(f"tasks must be positive, got {self.num_tasks}")
        if not self.deadline_factor >= 1.0:
            raise ValueError(f"deadline_factor must be >= 1, got {self.deadline_factor}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.nodes_per_type is not None and self.nodes_per_type <= 0:
            raise ValueError(f"nodes_per_type must be positive, got {self.nodes_per_type}")


def build_instance(
    workflow: Workflow,
    cluster: Cluster,
    *,
    scenario: str,
    deadline_factor: float,
    rng: RNGLike = None,
    num_intervals: int = DEFAULT_NUM_INTERVALS,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> ProblemInstance:
    """Build a problem instance from a workflow and a cluster.

    The pipeline is exactly the paper's: HEFT produces the fixed mapping and
    ordering, the communication-enhanced DAG is built, the ASAP makespan ``D``
    defines the deadline ``T = ceil(deadline_factor · D)``, and the scenario
    generator produces the green-power profile over ``[0, T)``.

    The number of profile intervals is capped so that the average interval is
    at least :data:`MIN_INTERVAL_LENGTH` time units long: the heuristics reason
    about interval budgets, which is only meaningful when intervals are not
    degenerate relative to task durations (on the paper's full-scale horizons
    the cap never triggers).
    """
    if deadline_factor < 1.0:
        raise ValueError(f"deadline_factor must be >= 1, got {deadline_factor}")
    heft = heft_mapping(workflow, cluster)
    dag = build_enhanced_dag(heft.mapping, rng=derive_rng(rng, "links"))
    tight = asap_makespan(dag)
    deadline = max(1, int(math.ceil(deadline_factor * tight)))
    effective_intervals = max(1, min(num_intervals, deadline // MIN_INTERVAL_LENGTH))
    profile = generate_power_profile(
        scenario,
        deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=effective_intervals,
        rng=derive_rng(rng, "profile"),
    )
    info: Dict[str, object] = {
        "workflow": workflow.name,
        "cluster": cluster.name,
        "scenario": scenario,
        "deadline_factor": float(deadline_factor),
        "asap_makespan": tight,
        "num_workflow_tasks": workflow.number_of_tasks,
    }
    if metadata:
        info.update(metadata)
    return ProblemInstance(
        dag,
        profile,
        name=name or f"{workflow.name}-{cluster.name}-{scenario}-d{deadline_factor:g}",
        metadata=info,
    )


def make_instance(spec: InstanceSpec, *, master_seed: RNGLike = None) -> ProblemInstance:
    """Materialise the grid cell described by *spec*."""
    seed = derive_rng(
        master_seed if master_seed is not None else spec.seed,
        spec.family,
        spec.num_tasks,
        spec.cluster,
        spec.scenario,
        int(spec.deadline_factor * 10),
        spec.seed,
    )
    workflow = generate_workflow(spec.family, spec.num_tasks, rng=seed)
    cluster = cluster_preset(spec.cluster, spec.nodes_per_type)
    return build_instance(
        workflow,
        cluster,
        scenario=spec.scenario,
        deadline_factor=spec.deadline_factor,
        rng=seed,
        name=spec.label,
        metadata={"family": spec.family, "target_tasks": spec.num_tasks},
    )


def default_grid(
    *,
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = (40, 80, 150),
    clusters: Sequence[str] = ("small", "large"),
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    deadline_factors: Sequence[float] = DEFAULT_DEADLINE_FACTORS,
    seed: int = 0,
) -> List[InstanceSpec]:
    """Return the full (scaled-down) experiment grid.

    The default values give ``4 × 3 × 2 × 4 × 4 = 384`` instances, mirroring
    the structure of the paper's 1,088 simulations at laptop scale.  The
    *bacass* family is only generated at its smallest size, as in the paper
    (which uses only the real-world bacass instance).
    """
    grid: List[InstanceSpec] = []
    for family in families:
        family_sizes = sizes if family != "bacass" else sizes[:1]
        for num_tasks in family_sizes:
            for cluster in clusters:
                for scenario in scenarios:
                    for factor in deadline_factors:
                        grid.append(
                            InstanceSpec(
                                family=family,
                                num_tasks=num_tasks,
                                cluster=cluster,
                                scenario=scenario,
                                deadline_factor=factor,
                                seed=seed,
                            )
                        )
    return grid


def single_processor_instance(
    num_tasks: int = 8,
    *,
    scenario: str = "S1",
    deadline_factor: float = 2.0,
    seed: int = 0,
    num_intervals: int = 6,
) -> ProblemInstance:
    """Build a single-processor chain instance (for the DP experiments).

    All tasks form a chain mapped to one processor, so the instance matches
    the setting of Theorem 4.1.
    """
    rng = derive_rng(seed, "single", num_tasks, scenario)
    workflow = generate_workflow("chain", num_tasks, rng=rng)
    cluster = single_processor_cluster(p_idle=2, p_work=5)
    return build_instance(
        workflow,
        cluster,
        scenario=scenario,
        deadline_factor=deadline_factor,
        rng=rng,
        num_intervals=num_intervals,
        name=f"single-{num_tasks}-{scenario}",
        metadata={"family": "chain", "target_tasks": num_tasks},
    )
