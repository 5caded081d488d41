"""The 3-Partition hardness construction (Theorem 4.3).

The NP-completeness proof reduces 3-Partition to the scheduling problem: given
``3n`` integers ``x_1..x_3n`` summing to ``nB`` with ``B/4 < x_i < B/2``, the
constructed instance has ``3n`` power-homogeneous processors (``P_idle = 0``,
``P_work = 1``), one independent task of duration ``x_i`` per processor, and a
horizon of ``2n − 1`` intervals alternating between length ``B`` / budget 1
(odd intervals) and length 1 / budget 0 (even intervals).  The instance admits
a schedule of carbon cost 0 iff the integers admit a 3-partition.

This module builds those instances (both from a given multiset and from a
generated, guaranteed-solvable multiset) so that the construction can be
exercised by tests and stress benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import uniform_cluster
from repro.schedule.instance import ProblemInstance
from repro.utils.errors import InvalidWorkflowError
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive_int
from repro.workflow.dag import Workflow

__all__ = [
    "three_partition_instance",
    "solvable_three_partition_items",
    "three_partition_profile",
]


def three_partition_profile(num_triplets: int, bound: int) -> PowerProfile:
    """Return the alternating profile of the reduction (length ``nB + n − 1``)."""
    num_triplets = check_positive_int(num_triplets, "num_triplets")
    bound = check_positive_int(bound, "bound")
    lengths: List[int] = []
    budgets: List[int] = []
    for index in range(2 * num_triplets - 1):
        if index % 2 == 0:
            lengths.append(bound)
            budgets.append(1)
        else:
            lengths.append(1)
            budgets.append(0)
    return PowerProfile(lengths, budgets)


def three_partition_instance(
    items: Sequence[int],
    bound: Optional[int] = None,
    *,
    name: str = "three-partition",
) -> ProblemInstance:
    """Build the scheduling instance of the 3-Partition reduction.

    Parameters
    ----------
    items:
        The ``3n`` positive integers.  Their sum must equal ``n · bound`` and
        each must lie strictly between ``bound/4`` and ``bound/2``.
    bound:
        The bound ``B``; inferred as ``sum(items) / n`` when omitted.
    name:
        Instance name.

    Returns
    -------
    ProblemInstance
        The constructed instance; a schedule of carbon cost 0 exists iff the
        items admit a 3-partition.
    """
    items = [int(x) for x in items]
    if len(items) % 3 != 0 or not items:
        raise InvalidWorkflowError("3-Partition needs a positive multiple of 3 items")
    num_triplets = len(items) // 3
    if bound is None:
        total = sum(items)
        if total % num_triplets != 0:
            raise InvalidWorkflowError(
                f"sum of items ({total}) is not divisible by n ({num_triplets})"
            )
        bound = total // num_triplets
    bound = check_positive_int(bound, "bound")
    if sum(items) != num_triplets * bound:
        raise InvalidWorkflowError("items must sum to n · B")
    for x in items:
        if not bound / 4 < x < bound / 2:
            raise InvalidWorkflowError(
                f"item {x} violates B/4 < x < B/2 for B = {bound}"
            )

    workflow = Workflow(f"{name}-{len(items)}")
    for i, work in enumerate(items):
        workflow.add_task(f"t{i}", work=work, category="independent")
    cluster = uniform_cluster(len(items), p_idle=0, p_work=1, name="uniform")
    assignment = {f"t{i}": f"p{i}" for i in range(len(items))}
    mapping = Mapping(workflow, cluster, assignment)
    dag = build_enhanced_dag(mapping, rng=0)
    profile = three_partition_profile(num_triplets, bound)
    return ProblemInstance(
        dag,
        profile,
        name=name,
        metadata={"family": "3partition", "bound": bound, "triplets": num_triplets},
    )


def solvable_three_partition_items(
    num_triplets: int,
    *,
    bound: int = 20,
    rng: RNGLike = None,
) -> Tuple[List[int], int]:
    """Generate items that are guaranteed to admit a 3-partition.

    Each triplet is generated to sum exactly to *bound* with every element in
    ``(B/4, B/2)``; the returned list is shuffled.

    Returns
    -------
    (items, bound)
    """
    num_triplets = check_positive_int(num_triplets, "num_triplets")
    bound = check_positive_int(bound, "bound")
    if bound < 12:
        raise InvalidWorkflowError("bound must be at least 12 to allow valid triplets")
    rng = ensure_rng(rng)
    low = bound // 4 + 1
    high = (bound - 1) // 2
    items: List[int] = []
    for _ in range(num_triplets):
        # Draw two elements and fix the third; retry until all three are valid.
        for _attempt in range(1000):
            a = int(rng.integers(low, high + 1))
            b = int(rng.integers(low, high + 1))
            c = bound - a - b
            if low <= c <= high:
                items.extend([a, b, c])
                break
        else:  # pragma: no cover - virtually impossible for bound >= 12
            raise InvalidWorkflowError("failed to generate a valid triplet")
    permutation = rng.permutation(len(items))
    return [items[i] for i in permutation], bound
