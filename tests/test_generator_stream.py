"""Pinned output and random stream of every workflow family generator.

``tests/data/generator_stream.json`` records, for every
:data:`~repro.workflow.generators.WORKFLOW_FAMILIES` entry at two sizes and
three seeds, the generated :meth:`Workflow.to_dict` and the generator's next
``random()`` after the call.  The second value pins how many numbers the
generator drew, so a change that reproduces the same workflow from a
different number of draws (and would shift every later draw of a simulator
job) fails here too.  Size 1 covers workflows without edges.

To regenerate the fixture on purpose (only when a change is *meant* to alter
generated workflows), run ``python tests/test_generator_stream.py`` and
commit the rewritten file with the reason.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.utils.rng import ensure_rng
from repro.workflow.generators import WORKFLOW_FAMILIES, generate_workflow

FIXTURE = Path(__file__).parent / "data" / "generator_stream.json"
SIZES = (1, 24)
SEEDS = (0, 1, 2)
CASES = [
    f"{family}-{size}-{seed}"
    for family in sorted(WORKFLOW_FAMILIES)
    for size in SIZES
    for seed in SEEDS
]


def observed(case: str) -> Dict[str, object]:
    """Return the workflow dict and the next ``random()`` of *case*."""
    family, size, seed = case.rsplit("-", 2)
    rng = ensure_rng(int(seed))
    workflow = generate_workflow(family, int(size), rng=rng)
    return {"workflow": workflow.to_dict(), "next_random": rng.random()}


def test_fixture_covers_every_family():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_generator_output_and_stream_are_pinned(case):
    expected = json.loads(FIXTURE.read_text())[case]
    assert json.loads(json.dumps(observed(case))) == expected


if __name__ == "__main__":
    lines: List[str] = [
        f"{json.dumps(case)}:{json.dumps(observed(case), separators=(',', ':'))}"
        for case in sorted(CASES)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
