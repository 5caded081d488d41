"""Exact algorithms: single-processor DP, ILP (HiGHS via SciPy), brute force."""

from repro.exact.dp_single import (
    candidate_end_times,
    dp_single_processor,
    single_processor_task_chain,
)
from repro.exact.ilp import IlpModel, build_ilp, ilp_optimal
from repro.exact.brute import brute_force_optimal

__all__ = [
    "candidate_end_times",
    "dp_single_processor",
    "single_processor_task_chain",
    "IlpModel",
    "build_ilp",
    "ilp_optimal",
    "brute_force_optimal",
]
