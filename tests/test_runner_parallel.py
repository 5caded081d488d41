"""Tests for the parallel grid execution path (``run_grid(jobs=N)``)."""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.experiments.instances import InstanceSpec
from repro.experiments.runner import RunRecord, run_grid
from repro.io.wire import canonical_json

VARIANTS = ("ASAP", "pressWR-LS")


def _specs() -> List[InstanceSpec]:
    return [
        InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=3),
        InstanceSpec("chain", 8, "single", "S4", 2.0, seed=3),
        InstanceSpec("bacass", 12, "small", "S3", 1.5, seed=3),
    ]


def _strip_runtimes(records: List[RunRecord]) -> List[RunRecord]:
    """Zero the wall-clock field, the only part of a record that may differ."""
    return [dataclasses.replace(record, runtime_seconds=0.0) for record in records]


def _canonical_bytes(records: List[RunRecord]) -> bytes:
    return canonical_json([record.to_dict() for record in _strip_runtimes(records)]).encode("utf8")


class TestRunGridParallel:
    @pytest.fixture(scope="class")
    def sequential_records(self) -> List[RunRecord]:
        return run_grid(_specs(), variants=VARIANTS, master_seed=7)

    def test_parallel_matches_sequential_byte_identical(self, sequential_records):
        parallel = run_grid(_specs(), variants=VARIANTS, master_seed=7, jobs=2)
        assert _canonical_bytes(parallel) == _canonical_bytes(sequential_records)

    def test_parallel_preserves_record_order(self, sequential_records):
        parallel = run_grid(_specs(), variants=VARIANTS, master_seed=7, jobs=3)
        assert [(r.instance, r.variant) for r in parallel] == [
            (r.instance, r.variant) for r in sequential_records
        ]

    def test_jobs_one_is_the_sequential_path(self, sequential_records):
        again = run_grid(_specs(), variants=VARIANTS, master_seed=7, jobs=1)
        assert _canonical_bytes(again) == _canonical_bytes(sequential_records)

    def test_generator_master_seed_rejected_in_parallel(self):
        with pytest.raises(ValueError, match="master_seed"):
            run_grid(
                _specs()[:1], variants=("ASAP",),
                master_seed=np.random.default_rng(1), jobs=2,
            )

    def test_generator_master_seed_rejected_sequentially(self):
        with pytest.raises(ValueError, match="master_seed"):
            run_grid(_specs()[:1], variants=("ASAP",), master_seed=np.random.default_rng(1))

    def test_parallel_honours_nodes_per_type(self):
        # A one-node-per-type cluster gives a different instance than the
        # preset's default; the worker must build the same one.
        specs = [InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1, nodes_per_type=1)]
        sequential = run_grid(specs, variants=VARIANTS, master_seed=0, jobs=1)
        parallel = run_grid(specs, variants=VARIANTS, master_seed=0, jobs=2)
        assert _canonical_bytes(parallel) == _canonical_bytes(sequential)

