"""Byte-identity of every variant's schedule on a committed instance fixture.

``tests/data/identity`` holds eight exported instances (``repro export``:
every workflow family, all four scenarios, all three cluster presets) and
``expected.json``, which records for every variant on each instance its
carbon cost, its makespan and the SHA-256 of its start times in the
schedule's key order.  Every variant run alone (each ``-LS`` variant from
its own greedy schedule) and one job of all variants (its eight ``-LS``
variants from their parents' schedules) must both reproduce them.  The expected values were produced before the
scheduling core moved to topological-rank rows; loading a wire instance
draws no random numbers, so the values do not depend on the NumPy version.

To regenerate them on purpose (only when a change is *meant* to alter
schedules), run ``python tests/test_schedule_identity.py`` and commit the
rewritten ``expected.json`` with the reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.api.execute import execute_job
from repro.api.jobs import Job
from repro.core.scheduler import CaWoSched
from repro.core.variants import variant_names
from repro.io.wire import load_instance
from repro.utils.names import encode_name

FIXTURE = Path(__file__).parent / "data" / "identity"
EXPECTED = FIXTURE / "expected.json"
INSTANCES = sorted(path.name for path in FIXTURE.glob("*.json") if path != EXPECTED)


def digests(results) -> Dict[str, List[object]]:
    """Return variant -> [cost, makespan, start-time digest] of *results*."""
    digested = {}
    for result in results:
        starts = [
            [encode_name(node), start]
            for node, start in result.schedule.start_times().items()
        ]
        text = json.dumps(starts, separators=(",", ":"), ensure_ascii=True)
        digested[result.variant] = [
            result.carbon_cost,
            result.makespan,
            hashlib.sha256(text.encode("ascii")).hexdigest(),
        ]
    return digested


def observed(name: str) -> Dict[str, List[object]]:
    """Return the digests of every variant run alone on fixture *name*."""
    instance = load_instance(FIXTURE / name)
    scheduler = CaWoSched()
    return digests(scheduler.run(instance, variant) for variant in variant_names())


def observed_as_job(name: str) -> Dict[str, List[object]]:
    """Return the digests of one job of all variants on fixture *name*.

    The job's eight ``-LS`` variants refine their parents' schedules.
    """
    instance = load_instance(FIXTURE / name)
    results, _ = execute_job(Job.from_instance(instance, variants=variant_names()))
    return digests(results)


def test_fixture_is_complete():
    expected = json.loads(EXPECTED.read_text())
    assert len(INSTANCES) == 8
    assert sorted(expected) == INSTANCES
    for name in INSTANCES:
        assert sorted(expected[name]) == sorted(variant_names())


@pytest.mark.parametrize("name", INSTANCES)
def test_schedules_are_byte_identical(name):
    expected = json.loads(EXPECTED.read_text())[name]
    assert observed(name) == expected


@pytest.mark.parametrize("name", INSTANCES)
def test_one_job_of_all_variants_is_byte_identical(name):
    expected = json.loads(EXPECTED.read_text())[name]
    assert observed_as_job(name) == expected


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps({name: observed(name) for name in INSTANCES}, indent=1, sort_keys=True)
        + "\n"
    )
