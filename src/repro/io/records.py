"""The flat run record: one algorithm run on one instance.

:class:`RunRecord` is what the grid runner, the client facade and the wire
format's ``"records"`` kind exchange.  It depends on nothing else in the
library, so every layer can import it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import Callable, Dict, Tuple

__all__ = ["RunRecord"]


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one instance.

    The metadata of the instance (family, cluster, scenario, deadline factor,
    size) is denormalised into the record so that grouping and filtering never
    need the instance object again.
    """

    instance: str
    variant: str
    carbon_cost: int
    runtime_seconds: float
    makespan: int
    deadline: int
    num_tasks: int
    family: str = ""
    cluster: str = ""
    scenario: str = ""
    deadline_factor: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Return the record as a plain dictionary (JSON friendly)."""
        return {
            "instance": self.instance,
            "variant": self.variant,
            "carbon_cost": self.carbon_cost,
            "runtime_seconds": self.runtime_seconds,
            "makespan": self.makespan,
            "deadline": self.deadline,
            "num_tasks": self.num_tasks,
            "family": self.family,
            "cluster": self.cluster,
            "scenario": self.scenario,
            "deadline_factor": self.deadline_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Each value must already have its field's type: a string, an integer
        (``2.7``, ``true`` and ``"9"`` are not integers) or a finite number
        (an integer reads as a float).  A missing required field raises
        :class:`KeyError` with the field name; a value of the wrong type
        raises :class:`ValueError` naming the field.
        """
        values: Dict[str, object] = {}
        for field in fields(cls):
            if field.name not in data:
                if field.default is MISSING:
                    raise KeyError(field.name)
                continue
            value = data[field.name]
            kind, convert, expected = _FIELD_TYPES[field.type]
            if (
                not isinstance(value, kind)
                or isinstance(value, bool)
                or (convert is float and not math.isfinite(value))
            ):
                raise ValueError(f"field {field.name!r} must be {expected}, got {value!r}")
            values[field.name] = convert(value)
        return cls(**values)


#: Field annotation -> the type a :class:`RunRecord` field read from the wire
#: must have, its conversion to the plain Python type, and what it accepts.
_FIELD_TYPES: Dict[str, Tuple[type, Callable[[object], object], str]] = {
    "str": (str, str, "a string"),
    "int": (Integral, int, "an integer"),
    "float": (Real, float, "a finite number"),
}
