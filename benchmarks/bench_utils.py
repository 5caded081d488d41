"""Small helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, Mapping

__all__ = ["write_figure_output", "write_bench_json", "git_sha", "BENCH_SCHEMA"]

#: Schema tag of the machine-readable benchmark artifacts.
BENCH_SCHEMA = "repro-bench-v1"


def write_figure_output(output_dir: Path, name: str, text: str) -> None:
    """Write a figure's textual representation to ``benchmarks/output/<name>.txt``.

    The ``.txt`` tables are volatile local artifacts (gitignored), as are the
    ``BENCH_*.json`` files written by :func:`write_bench_json`.
    """
    path = Path(output_dir) / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf8")


def git_sha() -> str:
    """Return the current git commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_bench_json(
    output_dir: Path,
    name: str,
    variants: Mapping[str, Mapping[str, float]],
    *,
    extra: Dict[str, object] | None = None,
) -> Path:
    """Write a machine-readable benchmark artifact ``latest/BENCH_<name>.json``.

    Schema: ``{"schema", "git_sha", "variants": {variant: {"median_ms",
    "mean_ms", "runs", ...}}, ...extra}`` — stable across changes so the
    perf trajectory can be tracked and regression-checked in CI
    (``benchmarks/check_regression.py``).

    The file goes to the gitignored ``latest/`` subdirectory of
    *output_dir*, so running the benchmarks never rewrites the committed
    baselines in *output_dir* itself.  Updating a baseline is a deliberate
    copy from ``latest/``.
    """
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "variants": {
            variant: dict(stats) for variant, stats in sorted(variants.items())
        },
    }
    if extra:
        payload.update(extra)
    latest = Path(output_dir) / "latest"
    latest.mkdir(parents=True, exist_ok=True)
    path = latest / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf8")
    return path
