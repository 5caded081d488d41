"""Byte-identity of what the CLI writes with ``--out``, against committed goldens.

``tests/data/golden`` holds seven documents, each written by one command
through :func:`repro.cli.main`:

- ``simulate-poisson-edf.json``: the report of the CI's online simulation
  (Poisson arrivals, EDF, persistence forecast, ``pressWR``);
- ``simulate-burst-reschedule.json``: bursts re-planned against a
  moving-average forecast of a noisy trace with ``pressWR-LS`` (every plan
  runs a local search);
- ``simulate-fifo-oracle.json``: FIFO commits planned against the exact
  (oracle) forecast with ``slackW-LS``;
- ``grid-all-variants.json``: one grid cell with all 17 variants;
- ``export.json``: one generated instance in the wire format;
- ``batch.json``: batch responses with job fingerprints for a spec job, an
  inline instance, a ``"scheduler": {"block_size": 2}`` entry and a repeat
  served from the cache;
- ``batch-identity.json``: the 17-variant job of each of the eight
  ``tests/data/identity`` instances, with its fingerprint.

Wall-clock ``runtime_seconds`` fields are zeroed before comparing; every
other byte must match.  To regenerate the goldens on purpose (only when a
change is *meant* to alter outputs), run ``python tests/test_golden_outputs.py``
and commit the rewritten files with the reason.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import List

import pytest

from repro.cli import main
from repro.core.variants import variant_names

GOLDEN = Path(__file__).parent / "data" / "golden"
IDENTITY = Path(__file__).parent / "data" / "identity"

#: Golden file name -> the CLI arguments that write it (``--out`` is appended).
COMMANDS = {
    "simulate-poisson-edf.json": [
        "simulate", "--arrivals", "poisson", "--rate", "0.02", "--horizon", "480",
        "--policy", "edf", "--forecast", "persistence", "--seed", "1",
        "--tasks", "8", "--variant", "pressWR",
    ],
    "simulate-burst-reschedule.json": [
        "simulate", "--arrivals", "burst", "--burst-period", "120", "--burst-size", "3",
        "--horizon", "480", "--policy", "reschedule", "--reschedule-period", "60",
        "--forecast", "moving-average", "--ma-window", "60", "--trace-noise", "0.2",
        "--seed", "2", "--tasks", "8", "--variant", "pressWR-LS",
    ],
    "simulate-fifo-oracle.json": [
        "simulate", "--arrivals", "poisson", "--rate", "0.03", "--horizon", "360",
        "--policy", "fifo", "--forecast", "oracle", "--seed", "3", "--tasks", "8", "12",
        "--families", "bacass", "eager", "--variant", "slackW-LS",
    ],
    "grid-all-variants.json": [
        "grid", "--families", "bacass", "--sizes", "20", "--scenarios", "S2",
        "--deadline-factors", "1.2", "--seed", "2", "--variants", *variant_names(),
    ],
    "export.json": [
        "export", "--family", "atacseq", "--tasks", "20", "--cluster", "large",
        "--scenario", "S3", "--deadline-factor", "1.5", "--seed", "4",
    ],
    "batch.json": ["batch"],
    "batch-identity.json": ["batch"],
}


def batch_requests() -> List[dict]:
    """Return the request entries of the batch golden."""
    instance = json.loads((IDENTITY / "chain_single_S3.json").read_text())["payload"]
    spec = {"family": "bacass", "tasks": 12, "cluster": "small", "scenario": "S2",
            "deadline_factor": 1.5, "seed": 1}
    return [
        {"spec": spec, "variants": ["ASAP", "pressWR", "pressWR-LS"], "master_seed": 3},
        {"instance": instance, "variants": ["ASAP", "slack", "slackW-LS"]},
        {"spec": spec, "variants": ["pressWR", "pressWR-LS"], "scheduler": {"block_size": 2}},
        {"spec": spec, "variants": ["ASAP", "pressWR", "pressWR-LS"], "master_seed": 3},
    ]


def identity_requests() -> List[dict]:
    """Return one default (17-variant) request per identity-fixture instance."""
    return [
        {"instance": json.loads(path.read_text())["payload"]}
        for path in sorted(IDENTITY.glob("*.json"))
        if path.name != "expected.json"
    ]


#: Batch golden name -> the request entries it serves.
BATCHES = {"batch.json": batch_requests, "batch-identity.json": identity_requests}


def _zero_runtimes(value: object) -> None:
    """Set every ``runtime_seconds`` field inside *value* to 0.0, in place."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "runtime_seconds":
                value[key] = 0.0
            else:
                _zero_runtimes(item)
    elif isinstance(value, list):
        for item in value:
            _zero_runtimes(item)


def produce(name: str, workdir: Path) -> bytes:
    """Run the command of golden *name* in *workdir* and return its normalised output."""
    args = list(COMMANDS[name])
    if name in BATCHES:
        requests = workdir / "requests.json"
        requests.write_text(json.dumps(BATCHES[name]()), encoding="utf8")
        args.append(str(requests))
    out = workdir / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*args, "--out", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf8"))
    _zero_runtimes(document)
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf8")


def test_goldens_are_complete():
    assert sorted(path.name for path in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    # Compared line by line so that a failure names the first differing line.
    produced = produce(name, tmp_path).decode("utf8").splitlines(keepends=True)
    assert produced == (GOLDEN / name).read_text(encoding="utf8").splitlines(keepends=True)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for golden in sorted(COMMANDS):
            (GOLDEN / golden).write_bytes(produce(golden, Path(scratch)))
            print(f"wrote {GOLDEN / golden}")
