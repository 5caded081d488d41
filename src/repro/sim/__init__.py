"""Online carbon-aware scheduling simulation.

The offline paper schedules one workflow against a fully known green-power
profile.  This package lifts that model online: workflows *arrive over time*
(:mod:`repro.sim.arrivals`), the green-power signal is only *forecast*
(:mod:`repro.sim.signal`, :mod:`repro.sim.forecast`), pluggable policies
decide when each arrival is committed (:mod:`repro.sim.policies`), and a
deterministic discrete-event engine (:mod:`repro.sim.engine`) drives the
virtual clock, producing a structured event log, per-workflow records and
online metrics (:mod:`repro.sim.events`, :mod:`repro.sim.metrics`,
:mod:`repro.sim.report`).

Quickstart
----------
>>> from repro.sim import SimulationConfig, simulate
>>> config = SimulationConfig(horizon=720, rate=0.01, policy="edf",
...                           forecast="persistence", seed=1)
>>> report = simulate(config)
>>> report.metrics["carbon_gap"] >= 1.0 or not report.jobs   # doctest: +SKIP
True
"""

from repro.utils.lazy import _lazy_exports

__all__ = [
    # arrivals
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "BurstProcess",
    "PoissonProcess",
    "TraceProcess",
    "make_arrivals",
    # engine
    "SimulationConfig",
    "Simulator",
    "simulate",
    # events
    "EVENT_KINDS",
    "SimEvent",
    # forecast
    "FORECAST_MODELS",
    "CarbonForecast",
    "MovingAverageForecast",
    "OracleForecast",
    "PersistenceForecast",
    "make_forecast",
    # metrics
    "JobRecord",
    "compute_metrics",
    # policies
    "POLICIES",
    "CarbonThresholdPolicy",
    "EdfPolicy",
    "FifoPolicy",
    "Policy",
    "PolicyContext",
    "ReschedulePolicy",
    "make_policy",
    # report
    "SimReport",
    # signal
    "CarbonSignal",
    # workload
    "SimJob",
    "WorkloadConfig",
    "build_job",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.arrivals": (
            "ARRIVAL_PROCESSES",
            "ArrivalProcess",
            "BurstProcess",
            "PoissonProcess",
            "TraceProcess",
            "make_arrivals",
        ),
        "repro.sim.engine": (
            "SimulationConfig",
            "Simulator",
            "simulate",
        ),
        "repro.sim.events": (
            "EVENT_KINDS",
            "SimEvent",
        ),
        "repro.sim.forecast": (
            "FORECAST_MODELS",
            "CarbonForecast",
            "MovingAverageForecast",
            "OracleForecast",
            "PersistenceForecast",
            "make_forecast",
        ),
        "repro.sim.metrics": (
            "JobRecord",
            "compute_metrics",
        ),
        "repro.sim.policies": (
            "POLICIES",
            "CarbonThresholdPolicy",
            "EdfPolicy",
            "FifoPolicy",
            "Policy",
            "PolicyContext",
            "ReschedulePolicy",
            "make_policy",
        ),
        "repro.sim.report": ("SimReport",),
        "repro.sim.signal": ("CarbonSignal",),
        "repro.sim.workload": (
            "SimJob",
            "WorkloadConfig",
            "build_job",
        ),
    },
)
