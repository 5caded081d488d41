"""Exact algorithms: single-processor DP, ILP (HiGHS via SciPy), brute force."""

from repro.utils.lazy import _lazy_exports

__all__ = [
    "candidate_end_times",
    "dp_single_processor",
    "single_processor_task_chain",
    "IlpModel",
    "build_ilp",
    "ilp_optimal",
    "brute_force_optimal",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.exact.dp_single": (
            "candidate_end_times",
            "dp_single_processor",
            "single_processor_task_chain",
        ),
        "repro.exact.ilp": (
            "IlpModel",
            "build_ilp",
            "ilp_optimal",
        ),
        "repro.exact.brute": ("brute_force_optimal",),
    },
)
