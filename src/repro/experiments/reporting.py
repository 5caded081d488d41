"""Plain-text / CSV reporting of experiment results.

The benchmark harness prints the rows behind every figure with these helpers,
so that ``pytest benchmarks/ --benchmark-only`` output can be compared
directly against the paper's figures.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.runner import RunRecord

__all__ = [
    "format_table",
    "format_mapping",
    "records_to_csv",
    "records_from_csv",
    "write_records_csv",
    "read_records_csv",
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


def records_to_csv(records: Iterable[RunRecord]) -> str:
    """Serialise run records to CSV text."""
    records = list(records)
    buffer = io.StringIO()
    if not records:
        return ""
    writer = csv.DictWriter(buffer, fieldnames=list(records[0].to_dict()))
    writer.writeheader()
    for record in records:
        writer.writerow(record.to_dict())
    return buffer.getvalue()


def records_from_csv(text: str) -> List[RunRecord]:
    """Parse CSV text produced by :func:`records_to_csv` back into records.

    Field values are coerced to their record types (counts back to ``int``,
    timings and deadline factors back to ``float``), so a write/read round
    trip reproduces the original records exactly.
    """
    text = text.strip()
    if not text:
        return []
    reader = csv.DictReader(io.StringIO(text))
    return [RunRecord.from_dict(row) for row in reader]


def write_records_csv(records: Iterable[RunRecord], path) -> None:
    """Write run records to a CSV file."""
    from pathlib import Path

    Path(path).write_text(records_to_csv(records), encoding="utf8")


def read_records_csv(path) -> List[RunRecord]:
    """Read run records back from a CSV file written by :func:`write_records_csv`."""
    from pathlib import Path

    return records_from_csv(Path(path).read_text(encoding="utf8"))


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
