"""Green-power scenario generators S1–S4.

The paper evaluates CaWoSched on four differently shaped renewable-energy
profiles (§6.1):

* **S1** — a ``-x²`` shape: little green power at the beginning, rising supply
  that falls again towards the end (solar power from morning to evening).
* **S2** — an ``x²`` shape modelling the same day but starting from midday:
  high supply at the beginning and the end, a dip in the middle.
* **S3** — a sinusoidal shape over 24 hours: little green power at the
  beginning, then one full sine oscillation.
* **S4** — a constant budget (storage for renewables, or nuclear power).

All scenarios add random perturbations and respect the paper's bounds: the
budget is always at least the total idle power of the platform and at most the
idle power plus 80 % of the total working power, so that scheduling decisions
actually matter.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.carbon.intervals import PowerProfile
from repro.utils.errors import InvalidProfileError
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_in_range, check_non_negative_int, check_positive_int

__all__ = [
    "SCENARIOS",
    "scenario_fraction",
    "generate_power_profile",
    "DEFAULT_NUM_INTERVALS",
    "DEFAULT_GREEN_CAP",
    "DEFAULT_PERTURBATION",
]

#: Default number of intervals per profile (one per "hour" of a day).
DEFAULT_NUM_INTERVALS = 24
#: The paper caps the variable part of the budget at 80 % of the work power.
DEFAULT_GREEN_CAP = 0.8
#: Relative perturbation applied to every interval budget.
DEFAULT_PERTURBATION = 0.1


def _shape_s1(x: float) -> float:
    """-x² shape: 0 at both ends, 1 in the middle."""
    return 1.0 - (2.0 * x - 1.0) ** 2


def _shape_s2(x: float) -> float:
    """x² shape (starting from midday): 1 at both ends, 0 in the middle."""
    return (2.0 * x - 1.0) ** 2


def _shape_s3(x: float) -> float:
    """Sinusoidal 24-hour shape starting with little green power."""
    return 0.5 * (1.0 - math.cos(2.0 * math.pi * x))


def _shape_s4(x: float) -> float:
    """Constant shape."""
    return 0.5


#: Scenario name → normalised shape function on [0, 1] → [0, 1].
SCENARIOS: Dict[str, Callable[[float], float]] = {
    "S1": _shape_s1,
    "S2": _shape_s2,
    "S3": _shape_s3,
    "S4": _shape_s4,
}


def scenario_fraction(scenario: str, x: float) -> float:
    """Return the normalised green fraction of *scenario* at relative time *x*.

    ``x`` must lie in ``[0, 1]``; the result lies in ``[0, 1]`` and multiplies
    the variable part of the budget (80 % of the platform's work power).
    """
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise InvalidProfileError(f"unknown scenario {scenario!r}; known: {known}")
    check_in_range(x, "x", low=0.0, high=1.0)
    return float(SCENARIOS[scenario](x))


def generate_power_profile(
    scenario: str,
    horizon: int,
    *,
    idle_power: int,
    work_power: int,
    num_intervals: int = DEFAULT_NUM_INTERVALS,
    rng: RNGLike = None,
) -> PowerProfile:
    """Generate the green-power profile of *scenario* over ``[0, horizon)``.

    Parameters
    ----------
    scenario:
        One of ``"S1"``, ``"S2"``, ``"S3"``, ``"S4"``.
    horizon:
        The deadline ``T`` (positive integer).
    idle_power:
        Total idle power of the platform; the budget never drops below this
        value (otherwise the carbon cost would be dominated by idle power the
        scheduler cannot influence).
    work_power:
        Total working power of the platform; the variable part of the budget
        is at most ``DEFAULT_GREEN_CAP * work_power``.
    num_intervals:
        Number of intervals ``J``; intervals get as-equal-as-possible lengths.
        Clamped to the horizon so every interval has length at least 1.
    rng:
        Seed or generator for the perturbations: the variable part of each
        interval's budget gets multiplicative noise of relative standard
        deviation ``DEFAULT_PERTURBATION``.

    Returns
    -------
    PowerProfile
    """
    horizon = check_positive_int(horizon, "horizon")
    idle_power = check_non_negative_int(idle_power, "idle_power")
    work_power = check_non_negative_int(work_power, "work_power")
    num_intervals = check_positive_int(num_intervals, "num_intervals")
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise InvalidProfileError(f"unknown scenario {scenario!r}; known: {known}")
    rng = ensure_rng(rng)

    num_intervals = min(num_intervals, horizon)
    lengths = np.full(num_intervals, horizon // num_intervals, dtype=np.int64)
    lengths[: horizon % num_intervals] += 1

    shape = SCENARIOS[scenario]
    budgets: List[int] = []
    cap = DEFAULT_GREEN_CAP * work_power
    begin = 0
    for length in lengths:
        # Evaluate the shape at the centre of the interval.
        x = (begin + length / 2.0) / horizon
        fraction = shape(min(1.0, max(0.0, x)))
        fraction *= 1.0 + float(rng.normal(0.0, DEFAULT_PERTURBATION))
        fraction = min(1.0, max(0.0, fraction))
        budgets.append(int(round(idle_power + fraction * cap)))
        begin += int(length)

    return PowerProfile([int(l) for l in lengths], budgets)
