"""Mapping substrate: HEFT, fixed mappings, communication-enhanced DAG.

The scheduling problem of the paper assumes the mapping and per-processor
ordering of tasks is fixed; this subpackage produces that input (via HEFT,
whose ``power_weight`` turns it into the carbon-aware first pass, or
manually) and converts it into the communication-enhanced DAG ``Gc`` on
which CaWoSched, the baseline and the exact algorithms operate.
"""

from repro.utils.lazy import _lazy_exports

__all__ = [
    "Mapping",
    "HeftResult",
    "heft_mapping",
    "EnhancedDAG",
    "build_enhanced_dag",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.mapping.mapping": ("Mapping",),
        "repro.mapping.heft": (
            "HeftResult",
            "heft_mapping",
        ),
        "repro.mapping.enhanced_dag": (
            "EnhancedDAG",
            "build_enhanced_dag",
        ),
    },
)
