"""CaWoSched core: scores, subdivision, greedy phase, local search, variants."""

from repro.utils.lazy import _lazy_exports

# Imported now: the function shares its name with the submodule, and an
# import of the submodule would bind the module under that name first.
from repro.core.local_search import DEFAULT_WINDOW, local_search

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.estlst": ("EstLstTracker",),
        "repro.core.scores": (
            "SCORE_PRESSURE",
            "SCORE_SLACK",
            "compute_scores",
            "pressure_scores",
            "slack_scores",
            "task_order",
            "weight_factors",
        ),
        "repro.core.subdivision": (
            "DEFAULT_BLOCK_SIZE",
            "block_alignment_points",
            "original_subdivision",
            "refined_subdivision",
        ),
        "repro.core.greedy": ("greedy_schedule",),
        "repro.core.variants": (
            "ALL_VARIANTS",
            "BASELINE",
            "GREEDY_VARIANTS",
            "LS_VARIANTS",
            "VariantSpec",
            "get_variant",
            "variant_names",
        ),
        "repro.core.scheduler": (
            "CaWoSched",
            "ScheduleResult",
        ),
    },
)
