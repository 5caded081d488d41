"""Tests for the ``simulate`` and ``variants --json`` CLI paths."""

from __future__ import annotations

import json

import pytest

import repro.cli
from repro.cli import main
from repro.core.variants import ALL_VARIANTS, variant_names
from repro.io.wire import load
from repro.sim.engine import SimulationConfig


def run_cli(*argv):
    return main(list(argv))


SIM_ARGS = [
    "simulate",
    "--arrivals", "poisson",
    "--rate", "0.01",
    "--horizon", "480",
    "--policy", "edf",
    "--forecast", "persistence",
    "--seed", "1",
    "--tasks", "8",
    "--variant", "pressWR",
]


class TestSimulateCommand:
    def test_runs_end_to_end(self, capsys):
        assert run_cli(*SIM_ARGS) == 0
        out = capsys.readouterr().out
        assert "workflows completed" in out
        assert "carbon_gap" in out
        assert "service:" in out

    def test_out_byte_identical_and_round_trips(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*SIM_ARGS, "--out", str(first)) == 0
        assert run_cli(*SIM_ARGS, "--out", str(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        report = load(first, "sim-report")
        assert report.config["policy"] == "edf"
        assert report.config["forecast"] == "persistence"
        assert len(report.jobs) > 0
        assert report.metrics["workflows"] == len(report.jobs)

    def test_trace_arrivals_from_file(self, tmp_path, capsys):
        trace_file = tmp_path / "arrivals.json"
        trace_file.write_text("[5, 90, 200]", encoding="utf8")
        out_file = tmp_path / "sim.json"
        code = run_cli(
            "simulate", "--arrivals", "trace", "--trace-file", str(trace_file),
            "--horizon", "480", "--tasks", "8", "--variant", "pressWR",
            "--out", str(out_file),
        )
        capsys.readouterr()
        assert code == 0
        report = load(out_file, "sim-report")
        assert sorted(record.arrival for record in report.jobs) == [5, 90, 200]

    def test_trace_arrivals_need_a_file(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--arrivals", "trace")
        assert "--trace-file" in capsys.readouterr().err

    def test_zero_rate_reports_nothing(self, capsys):
        assert run_cli("simulate", "--rate", "0", "--horizon", "100") == 0
        assert "no arrivals" in capsys.readouterr().out

    def test_no_options_build_the_default_config(self, monkeypatch, capsys):
        built = []

        class Planned(Exception):
            pass

        def record(config):
            built.append(config)
            raise Planned

        monkeypatch.setattr(repro.cli, "simulate", record)
        with pytest.raises(Planned):
            run_cli("simulate")
        capsys.readouterr()
        assert built == [SimulationConfig()]

    def test_unknown_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--variant", "NOPE", "--horizon", "100")
        assert "unknown algorithm variant" in capsys.readouterr().err


class TestVariantsJson:
    def test_json_listing_parses_and_is_complete(self, capsys):
        assert run_cli("variants", "--json") == 0
        listing = json.loads(capsys.readouterr().out)
        assert isinstance(listing, list)
        assert [entry["name"] for entry in listing] == variant_names()
        by_name = {entry["name"]: entry for entry in listing}
        assert set(by_name) == set(ALL_VARIANTS)
        assert by_name["ASAP"]["baseline"] is True
        assert by_name["ASAP"]["score"] is None
        assert by_name["pressWR-LS"] == {
            "name": "pressWR-LS",
            "score": "pressure",
            "weighted": True,
            "refined": True,
            "local_search": True,
            "baseline": False,
            "phases": ["greedy", "local-search"],
            "supports_deadline": True,
            "cost_model": "carbon",
            "builtin": True,
        }
        assert by_name["slack"]["local_search"] is False
        assert by_name["slack"]["phases"] == ["greedy"]
        assert by_name["ASAP"]["phases"] == ["baseline"]
        assert by_name["ASAP"]["supports_deadline"] is False
        assert by_name["ASAP"]["cost_model"] == "makespan"

    def test_plain_listing_unchanged(self, capsys):
        assert run_cli("variants") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == variant_names()

    def test_json_listing_round_trips_the_registry(self, capsys):
        # Every listing entry restates its VariantSpec: the legacy keys
        # mirror the spec, and the phases/cost model follow from it.
        assert run_cli("variants", "--json") == 0
        listing = json.loads(capsys.readouterr().out)
        for entry in listing:
            spec = ALL_VARIANTS[entry["name"]]
            assert entry["score"] == spec.base
            assert entry["weighted"] == spec.weighted
            assert entry["refined"] == spec.refined
            assert entry["local_search"] == spec.local_search
            assert entry["baseline"] == spec.is_baseline
            assert ("local-search" in entry["phases"]) == spec.local_search
            assert ("baseline" in entry["phases"]) == spec.is_baseline
            assert entry["supports_deadline"] == (not spec.is_baseline)
            assert entry["cost_model"] == ("makespan" if spec.is_baseline else "carbon")
            assert entry["builtin"] is True


class TestMalformedSimulateInput:
    """A negative seed or a non-integer trace entry is a parser error (exit 2)."""

    @pytest.mark.parametrize(
        "argv, trace, message",
        [
            (["--seed", "-1"], None, "seed must be non-negative"),
            (["--arrivals", "trace"], '["abc"]', "list of integer arrival times"),
            (["--arrivals", "trace"], "[null]", "list of integer arrival times"),
            (["--arrivals", "trace"], "[1.5]", "list of integer arrival times"),
            (["--arrivals", "trace"], "[true]", "list of integer arrival times"),
        ],
    )
    def test_exits_cleanly(self, capsys, tmp_path, argv, trace, message):
        if trace is not None:
            trace_file = tmp_path / "arrivals.json"
            trace_file.write_text(trace, encoding="utf8")
            argv = argv + ["--trace-file", str(trace_file)]
        with pytest.raises(SystemExit) as exit_info:
            run_cli("simulate", "--horizon", "100", "--tasks", "8", *argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
