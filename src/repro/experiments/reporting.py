"""Plain-text reporting of experiment results.

The benchmark harness prints the rows behind every figure with these helpers,
so that ``pytest benchmarks/ --benchmark-only`` output can be compared
directly against the paper's figures.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_mapping",
    "format_rank_distribution",
    "format_performance_profiles",
]


def format_table(
    rows: Sequence[Sequence[object]],
    headers: Sequence[str],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Return *rows* as an aligned plain-text table."""
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_mapping(
    mapping: Mapping[str, float],
    *,
    key_header: str = "variant",
    value_header: str = "value",
    sort_by_value: bool = True,
) -> str:
    """Return a name → number mapping as a two-column table."""
    items = list(mapping.items())
    if sort_by_value:
        items.sort(key=lambda item: item[1])
    return format_table(items, [key_header, value_header])


def format_rank_distribution(distribution: Mapping[str, Mapping[int, float]]) -> str:
    """Render a rank distribution (Figure 1) as a table of percentages."""
    all_ranks = sorted({rank for ranks in distribution.values() for rank in ranks})
    headers = ["variant"] + [f"rank {rank}" for rank in all_ranks]
    rows: List[List[object]] = []
    for variant in sorted(distribution, key=lambda v: -distribution[v].get(1, 0.0)):
        row: List[object] = [variant]
        for rank in all_ranks:
            row.append(100.0 * distribution[variant].get(rank, 0.0))
        rows.append(row)
    return format_table(rows, headers, float_format="{:.1f}")


def format_performance_profiles(
    profiles: Mapping[str, Sequence[tuple]],
    *,
    taus: Optional[Sequence[float]] = None,
) -> str:
    """Render performance profiles (Figure 2) as a variant × τ table."""
    variants = sorted(profiles)
    if taus is None and variants:
        taus = [tau for tau, _ in profiles[variants[0]]]
    headers = ["variant"] + [f"τ={tau:g}" for tau in (taus or [])]
    rows: List[List[object]] = []
    for variant in variants:
        curve = dict(profiles[variant])
        rows.append([variant] + [curve.get(tau, float("nan")) for tau in (taus or [])])
    return format_table(rows, headers, float_format="{:.2f}")
