"""CaWoSched core: scores, subdivision, greedy phase, local search, variants."""

from repro.core.estlst import EstLstTracker
from repro.core.scores import (
    SCORE_PRESSURE,
    SCORE_SLACK,
    compute_scores,
    pressure_scores,
    slack_scores,
    task_order,
    weight_factors,
)
from repro.core.subdivision import (
    DEFAULT_BLOCK_SIZE,
    block_alignment_points,
    original_subdivision,
    refined_subdivision,
)
from repro.core.greedy import greedy_schedule
from repro.core.local_search import DEFAULT_WINDOW, local_search
from repro.core.variants import (
    ALL_VARIANTS,
    BASELINE,
    GREEDY_VARIANTS,
    LS_VARIANTS,
    VariantSpec,
    get_variant,
    variant_names,
)
from repro.core.scheduler import CaWoSched, ScheduleResult

__all__ = [
    "EstLstTracker",
    "SCORE_PRESSURE",
    "SCORE_SLACK",
    "compute_scores",
    "pressure_scores",
    "slack_scores",
    "task_order",
    "weight_factors",
    "DEFAULT_BLOCK_SIZE",
    "block_alignment_points",
    "original_subdivision",
    "refined_subdivision",
    "greedy_schedule",
    "DEFAULT_WINDOW",
    "local_search",
    "ALL_VARIANTS",
    "BASELINE",
    "GREEDY_VARIANTS",
    "LS_VARIANTS",
    "VariantSpec",
    "get_variant",
    "variant_names",
    "CaWoSched",
    "ScheduleResult",
]
