"""Mapping substrate: HEFT, fixed mappings, communication-enhanced DAG.

The scheduling problem of the paper assumes the mapping and per-processor
ordering of tasks is fixed; this subpackage produces that input (via HEFT,
whose ``power_weight`` turns it into the carbon-aware first pass, or
manually) and converts it into the communication-enhanced DAG ``Gc`` on
which CaWoSched, the baseline and the exact algorithms operate.
"""

from repro.mapping.mapping import Mapping
from repro.mapping.heft import HeftResult, heft_mapping
from repro.mapping.enhanced_dag import EnhancedDAG, build_enhanced_dag

__all__ = [
    "Mapping",
    "HeftResult",
    "heft_mapping",
    "EnhancedDAG",
    "build_enhanced_dag",
]
