"""Shared fixtures of the benchmark harness.

The benchmark suite regenerates every figure and table of the paper's
evaluation section on a laptop-scale instance grid.  The grid is run exactly
once per session (the ``grid_records`` fixture) and shared by all
record-driven figure benchmarks; the per-figure benchmarks then time the
figure computation itself and write the resulting rows/series both to stdout
and to ``benchmarks/output/<figure>.txt`` (see :mod:`bench_utils`) so they
can be compared against the paper.

Scaling knobs (environment variables):

* ``REPRO_BENCH_SIZES`` — comma-separated workflow sizes (default ``30,60``).
* ``REPRO_BENCH_NODES_SMALL`` / ``REPRO_BENCH_NODES_LARGE`` — nodes per
  processor type of the two clusters (defaults 2 / 4).
* ``REPRO_BENCH_SEED`` — master seed (default 0).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List

import pytest

from repro.core.scheduler import CaWoSched
from repro.core.variants import variant_names
from repro.experiments.instances import InstanceSpec, default_grid
from repro.experiments.runner import RunRecord, run_grid

OUTPUT_DIR = Path(__file__).parent / "output"


def _bench_sizes() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES", "30,60")
    return [int(part) for part in raw.split(",") if part.strip()]


def _bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def bench_specs() -> List[InstanceSpec]:
    """The laptop-scale counterpart of the paper's 1,088-simulation grid."""
    return default_grid(sizes=tuple(_bench_sizes()), seed=_bench_seed())


@pytest.fixture(scope="session")
def grid_records(bench_specs) -> List[RunRecord]:
    """Run all 17 algorithm variants on the whole grid (once per session)."""
    scheduler = CaWoSched()
    return run_grid(
        bench_specs,
        variants=variant_names(),
        scheduler=scheduler,
        master_seed=_bench_seed(),
    )
