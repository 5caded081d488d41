"""The named CaWoSched algorithm variants.

Two base scores (slack, pressure) × optional power weighting (``W``) ×
optional refined interval subdivision (``R``) give eight greedy variants;
each can be followed by the local search (``-LS`` suffix), for the sixteen
heuristics evaluated in the paper.  The carbon-unaware ASAP baseline completes
the algorithm set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.scores import SCORE_PRESSURE, SCORE_SLACK
from repro.utils.errors import CaWoSchedError

__all__ = [
    "VariantSpec",
    "ALL_VARIANTS",
    "GREEDY_VARIANTS",
    "LS_VARIANTS",
    "BASELINE",
    "variant_names",
    "get_variant",
]


@dataclass(frozen=True)
class VariantSpec:
    """Description of one algorithm variant.

    Attributes
    ----------
    name:
        The paper's name of the variant (e.g. ``"pressWR-LS"`` or ``"ASAP"``).
    base:
        Base score (``"slack"`` / ``"pressure"``), or ``None`` for the
        baseline.
    weighted:
        Whether the score is weighted by processor power.
    refined:
        Whether the refined interval subdivision is used.
    local_search:
        Whether the local search is applied after the greedy phase.
    is_baseline:
        True only for ASAP.
    """

    name: str
    base: Optional[str]
    weighted: bool
    refined: bool
    local_search: bool
    is_baseline: bool = False

    @property
    def parent(self) -> Optional[str]:
        """Name of the greedy variant an ``-LS`` variant refines, else ``None``."""
        return self.name[: -len("-LS")] if self.local_search else None


def _build_variants() -> Tuple[Dict[str, VariantSpec], List[str], List[str]]:
    variants: Dict[str, VariantSpec] = {}
    greedy_names: List[str] = []
    ls_names: List[str] = []
    for base, prefix in ((SCORE_SLACK, "slack"), (SCORE_PRESSURE, "press")):
        for weighted in (False, True):
            for refined in (False, True):
                name = prefix + ("W" if weighted else "") + ("R" if refined else "")
                variants[name] = VariantSpec(
                    name=name,
                    base=base,
                    weighted=weighted,
                    refined=refined,
                    local_search=False,
                )
                greedy_names.append(name)
                ls_name = f"{name}-LS"
                variants[ls_name] = VariantSpec(
                    name=ls_name,
                    base=base,
                    weighted=weighted,
                    refined=refined,
                    local_search=True,
                )
                ls_names.append(ls_name)
    variants["ASAP"] = VariantSpec(
        name="ASAP",
        base=None,
        weighted=False,
        refined=False,
        local_search=False,
        is_baseline=True,
    )
    return variants, greedy_names, ls_names


_VARIANTS, _GREEDY_NAMES, _LS_NAMES = _build_variants()

#: All variants by name (8 greedy + 8 with local search + ASAP).
ALL_VARIANTS: Dict[str, VariantSpec] = dict(_VARIANTS)
#: Names of the eight greedy variants without local search.
GREEDY_VARIANTS: List[str] = list(_GREEDY_NAMES)
#: Names of the sixteen heuristics with local search applied.
LS_VARIANTS: List[str] = list(_LS_NAMES)
#: Name of the carbon-unaware baseline.
BASELINE: str = "ASAP"


def variant_names(*, include_baseline: bool = True, only_local_search: bool = False) -> List[str]:
    """Return algorithm variant names.

    Parameters
    ----------
    include_baseline:
        Include ``"ASAP"`` at the front of the list.
    only_local_search:
        Restrict to the eight ``-LS`` variants (the main comparison set of the
        paper's Figures 1–6).
    """
    names = list(LS_VARIANTS) if only_local_search else list(GREEDY_VARIANTS) + list(LS_VARIANTS)
    if include_baseline:
        names = [BASELINE] + names
    return names


def get_variant(name: str) -> VariantSpec:
    """Return the :class:`VariantSpec` called *name*.

    Raises
    ------
    CaWoSchedError
        If the name is unknown.
    """
    try:
        return ALL_VARIANTS[name]
    except KeyError as exc:
        known = ", ".join(sorted(ALL_VARIANTS))
        raise CaWoSchedError(f"unknown algorithm variant {name!r}; known: {known}") from exc
