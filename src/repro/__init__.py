"""repro — a reproduction of CaWoSched (carbon-aware workflow scheduling).

This package implements the complete system of the ICPP 2025 paper
*"Carbon-Aware Workflow Scheduling with Fixed Mapping and Deadline
Constraint"*: workflows, heterogeneous platforms, HEFT mappings, the
communication-enhanced DAG, green-power profiles, the 16 CaWoSched heuristic
variants, the ASAP baseline, the exact algorithms (single-processor dynamic
program and ILP) and the experiment harness that regenerates every figure and
table of the paper's evaluation, plus the JSON wire format (:mod:`repro.io`),
the client facade (:mod:`repro.api`) and the online simulator
(:mod:`repro.sim`) built on top.  This namespace re-exports the entry points
the CLI, the examples and the benchmarks use; each subpackage's ``__all__``
lists the rest.

Quickstart
----------
>>> from repro import (
...     generate_workflow, scaled_small_cluster, heft_mapping,
...     build_enhanced_dag, generate_power_profile, asap_makespan,
...     ProblemInstance, CaWoSched,
... )
>>> workflow = generate_workflow("atacseq", 60, rng=1)
>>> cluster = scaled_small_cluster()
>>> mapping = heft_mapping(workflow, cluster).mapping
>>> dag = build_enhanced_dag(mapping, rng=1)
>>> deadline = 2 * asap_makespan(dag)
>>> profile = generate_power_profile(
...     "S1", deadline,
...     idle_power=dag.platform.total_idle_power(),
...     work_power=dag.platform.total_work_power(), rng=1)
>>> instance = ProblemInstance(dag, profile)
>>> scheduler = CaWoSched()
>>> result = scheduler.run(instance, "pressWR-LS")
>>> result.carbon_cost <= scheduler.run(instance, "ASAP").carbon_cost
True
"""

from repro.utils.lazy import _lazy_exports

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # errors
    "CaWoSchedError",
    "CyclicWorkflowError",
    "InfeasibleScheduleError",
    "InvalidMappingError",
    "InvalidProfileError",
    "InvalidScheduleError",
    "InvalidWorkflowError",
    "SolverError",
    # workflow
    "Workflow",
    "WORKFLOW_FAMILIES",
    "generate_workflow",
    # platform
    "Cluster",
    "ExtendedPlatform",
    "ProcessorSpec",
    "cluster_from_table1",
    "large_cluster",
    "scaled_large_cluster",
    "scaled_small_cluster",
    "single_processor_cluster",
    "small_cluster",
    "uniform_cluster",
    # mapping
    "EnhancedDAG",
    "HeftResult",
    "Mapping",
    "build_enhanced_dag",
    "heft_mapping",
    # carbon
    "CarbonIntensityTrace",
    "PowerProfile",
    "generate_power_profile",
    "profile_from_trace",
    "synthetic_daily_trace",
    # schedule
    "ProblemInstance",
    "Schedule",
    "asap_makespan",
    "asap_schedule",
    "carbon_cost",
    "carbon_cost_per_time_unit",
    "check_schedule",
    "is_feasible",
    # core
    "CaWoSched",
    "ScheduleResult",
    "greedy_schedule",
    "local_search",
    "variant_names",
    # io (wire format)
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_records",
    "save_instance",
    "save_records",
    # api (the typed client facade)
    "ApiError",
    "BackendFailure",
    "Client",
    "InvalidJob",
    "Job",
    "JobResult",
    "UnknownVariant",
    "ResultCache",
    "parallel_map",
    # sim (online simulation)
    "CarbonSignal",
    "JobRecord",
    "SimEvent",
    "SimReport",
    "SimulationConfig",
    "Simulator",
    "WorkloadConfig",
    "simulate",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.utils.errors": (
            "CaWoSchedError",
            "CyclicWorkflowError",
            "InfeasibleScheduleError",
            "InvalidMappingError",
            "InvalidProfileError",
            "InvalidScheduleError",
            "InvalidWorkflowError",
            "SolverError",
        ),
        "repro.workflow": (
            "Workflow",
            "WORKFLOW_FAMILIES",
            "generate_workflow",
        ),
        "repro.platform_": (
            "Cluster",
            "ExtendedPlatform",
            "ProcessorSpec",
            "cluster_from_table1",
            "large_cluster",
            "scaled_large_cluster",
            "scaled_small_cluster",
            "single_processor_cluster",
            "small_cluster",
            "uniform_cluster",
        ),
        "repro.mapping": (
            "EnhancedDAG",
            "HeftResult",
            "Mapping",
            "build_enhanced_dag",
            "heft_mapping",
        ),
        "repro.carbon": (
            "CarbonIntensityTrace",
            "PowerProfile",
            "generate_power_profile",
            "profile_from_trace",
            "synthetic_daily_trace",
        ),
        "repro.schedule": (
            "ProblemInstance",
            "Schedule",
            "asap_makespan",
            "asap_schedule",
            "carbon_cost",
            "carbon_cost_per_time_unit",
            "check_schedule",
            "is_feasible",
        ),
        "repro.core": (
            "CaWoSched",
            "ScheduleResult",
            "greedy_schedule",
            "local_search",
            "variant_names",
        ),
        "repro.io": (
            "instance_from_dict",
            "instance_to_dict",
            "load_instance",
            "load_records",
            "save_instance",
            "save_records",
        ),
        "repro.api": (
            "ApiError",
            "BackendFailure",
            "Client",
            "InvalidJob",
            "Job",
            "JobResult",
            "ResultCache",
            "UnknownVariant",
            "parallel_map",
        ),
        "repro.sim": (
            "CarbonSignal",
            "JobRecord",
            "SimEvent",
            "SimReport",
            "SimulationConfig",
            "Simulator",
            "WorkloadConfig",
            "simulate",
        ),
    },
)
