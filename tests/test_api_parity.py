"""Byte-identity of the grid runner with the repro.api facade.

``run_grid`` submits its cells through the facade.  These tests pin that it
produces byte-identical records (up to wall-clock timings) to submitting
each cell as a job through a :class:`Client`.
"""

from __future__ import annotations

import dataclasses

from repro.api import Client, Job
from repro.experiments.instances import InstanceSpec
from repro.experiments.runner import run_grid
from repro.io.wire import canonical_json

def _canonical(records):
    stripped = [dataclasses.replace(r, runtime_seconds=0.0) for r in records]
    return canonical_json([record.to_dict() for record in stripped]).encode("utf8")


class TestRunnerShims:
    def test_run_grid_matches_per_cell_submission(self):
        specs = [
            InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=3),
            InstanceSpec("chain", 8, "single", "S4", 2.0, seed=3),
        ]
        via_grid = run_grid(specs, variants=("ASAP", "pressWR-LS"), master_seed=7)
        client = Client(cache_size=8)
        facade = []
        for spec in specs:
            result = client.submit(
                Job.from_spec(spec, variants=("ASAP", "pressWR-LS"), master_seed=7)
            )
            facade.extend(result.records)
        assert _canonical(facade) == _canonical(via_grid)
