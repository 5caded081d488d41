"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.variants import variant_names
from repro.io.wire import WIRE_FORMAT, load_records, save_instance

from schedule_helpers import two_task_chain


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.family == "atacseq"
        assert args.deadline_factor == 2.0
        assert args.variants is None

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--family", "nope"])


class TestVariantsCommand:
    def test_lists_all_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == variant_names()


class TestScheduleCommand:
    def test_schedule_prints_costs(self, capsys):
        code = main([
            "schedule", "--family", "bacass", "--tasks", "15",
            "--scenario", "S1", "--deadline-factor", "1.5", "--seed", "1",
            "--variants", "ASAP", "pressWR-LS",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ASAP" in out
        assert "pressWR-LS" in out
        assert "carbon cost" in out

    def test_schedule_single_cluster(self, capsys):
        code = main([
            "schedule", "--family", "chain", "--tasks", "6", "--cluster", "single",
            "--variants", "ASAP", "slack",
        ])
        assert code == 0
        assert "slack" in capsys.readouterr().out

    def test_schedule_unknown_variant_exit_code(self, capsys):
        code = main([
            "schedule", "--family", "chain", "--tasks", "6", "--cluster", "single",
            "--variants", "NOPE",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "unknown-variant" in err
        assert "unknown algorithm variant" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--window", "-1"], "window must be non-negative"),
            (["--block-size", "0"], "block_size must be positive"),
        ],
    )
    def test_bad_scheduler_parameters_are_parser_errors(self, capsys, tmp_path, flags, message):
        path = tmp_path / "instance.json"
        assert main(["export", "--family", "chain", "--tasks", "6", "--out", str(path)]) == 0
        capsys.readouterr()
        for argv in (
            ["schedule", "--family", "chain", "--tasks", "6", "--cluster", "single"],
            ["import", str(path)],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + flags)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err


class TestGridCommand:
    def test_grid_prints_summaries(self, capsys):
        code = main([
            "grid", "--families", "bacass", "--sizes", "15",
            "--scenarios", "S1", "S3", "--deadline-factors", "1.5",
            "--variants", "ASAP", "pressWR-LS", "slackWR-LS", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ranked first" in out
        assert "median cost ratio" in out or "pressWR-LS" in out

    def test_grid_defaults_jobs_and_out(self):
        args = build_parser().parse_args(["grid"])
        assert args.jobs == 1
        assert args.out is None

    def test_grid_jobs_and_out(self, capsys, tmp_path):
        out = tmp_path / "records.json"
        code = main([
            "grid", "--families", "bacass", "--sizes", "15",
            "--scenarios", "S1", "--deadline-factors", "1.5",
            "--variants", "ASAP", "pressWR-LS", "--seed", "2",
            "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        assert "over 2 workers" in capsys.readouterr().out
        records = load_records(out)
        assert {record.variant for record in records} == {"ASAP", "pressWR-LS"}


class TestExportImportCommands:
    def test_export_then_import(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        code = main([
            "export", "--family", "bacass", "--tasks", "15",
            "--scenario", "S1", "--deadline-factor", "1.5", "--seed", "1",
            "--out", str(path),
        ])
        assert code == 0
        assert "wrote instance" in capsys.readouterr().out
        assert json.loads(path.read_text())["format"] == WIRE_FORMAT

        code = main(["import", str(path), "--variants", "ASAP", "pressWR-LS"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pressWR-LS" in out
        assert "carbon cost" in out

    def test_export_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_import_missing_file_errors(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["import", str(tmp_path / "nope.json")])
        assert "not found" in capsys.readouterr().err

    def test_import_rejects_non_wire_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(SystemExit):
            main(["import", str(path)])
        assert "unknown wire format" in capsys.readouterr().err


    def test_import_malformed_link_exits_cleanly(self, capsys, tmp_path):
        # A communication_order link key with one processor name is a wire
        # error: exit status 2 naming the problem, no traceback.
        path = tmp_path / "instance.json"
        main([
            "export", "--family", "bacass", "--tasks", "30", "--cluster", "small",
            "--seed", "1", "--out", str(path),
        ])
        document = json.loads(path.read_text())
        link = document["payload"]["mapping"]["communication_order"][0]
        link[0] = link[0][:1]
        path.write_text(json.dumps(document))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["import", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "must name two processors" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "owner, field, value, message",
        [
            ("links", "speed", float("nan"), "speed must be a number"),
            ("profile", "budgets", 2**70, "must be at most"),
        ],
    )
    def test_import_out_of_range_value_exits_cleanly(
        self, capsys, tmp_path, owner, field, value, message
    ):
        # Used to load and then crash scheduling: a bare ValueError from
        # execution_time (exit 1) or an OverflowError reported as a backend
        # failure (exit 4).
        path = tmp_path / "instance.json"
        main([
            "export", "--family", "bacass", "--tasks", "30", "--cluster", "small",
            "--seed", "1", "--out", str(path),
        ])
        document = json.loads(path.read_text())
        entry = document["payload"][owner]
        if owner == "links":
            entry[0][field] = value
        else:
            entry[field][0] = value
        path.write_text(json.dumps(document))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["import", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


    def test_import_sums_beyond_int64_exit_cleanly(self, capsys, tmp_path):
        # Every power passes its own int64 check, but their sum over the
        # horizon does not: exit status 2, no traceback.
        path = tmp_path / "instance.json"
        save_instance(two_task_chain(2**61, 2**61 - 1, 0), path)
        document = json.loads(path.read_text())
        document["payload"]["mapping"]["cluster"]["processors"][0]["p_idle"] = 2**61 + 1
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as exit_info:
            main(["import", str(path), "--variants", "ASAP"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "more than the int64 costs can hold" in err
        assert "Traceback" not in err


class TestBatchCommand:
    @staticmethod
    def _requests_file(tmp_path, entries):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": entries}))
        return path

    def test_batch_deduplicates(self, capsys, tmp_path):
        spec = {
            "family": "bacass", "tasks": 15, "cluster": "small",
            "scenario": "S1", "deadline_factor": 1.5, "seed": 1,
        }
        entry = {"spec": spec, "variants": ["ASAP", "pressWR-LS"]}
        path = self._requests_file(tmp_path, [entry, entry])
        out = tmp_path / "responses.json"
        code = main(["batch", str(path), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 requests, 1 scheduled" in text
        assert "yes" in text and "no" in text
        document = json.loads(out.read_text())
        assert document["kind"] == "responses"
        assert [entry["cached"] for entry in document["payload"]] == [False, True]
        assert (
            document["payload"][0]["fingerprint"]
            == document["payload"][1]["fingerprint"]
        )

    def test_batch_accepts_top_level_list(self, capsys, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"spec": {"family": "chain", "tasks": 6, "cluster": "single",
                      "scenario": "S4", "deadline_factor": 2.0},
             "variants": ["ASAP"]},
        ]))
        assert main(["batch", str(path)]) == 0
        assert "1 requests, 1 scheduled" in capsys.readouterr().out

    def test_batch_missing_file_errors(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", str(tmp_path / "nope.json")])
        assert "not found" in capsys.readouterr().err

    def test_batch_invalid_json_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit):
            main(["batch", str(path)])
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_empty_list_errors(self, capsys, tmp_path):
        path = self._requests_file(tmp_path, [])
        with pytest.raises(SystemExit):
            main(["batch", str(path)])
        assert "non-empty list" in capsys.readouterr().err

    def test_batch_malformed_request_errors(self, capsys, tmp_path):
        path = self._requests_file(tmp_path, [{"variants": ["ASAP"]}])
        with pytest.raises(SystemExit):
            main(["batch", str(path)])
        assert "'instance' payload or a 'spec'" in capsys.readouterr().err

        spec = {"family": "chain", "tasks": 6, "cluster": "single"}
        for entry, message in [
            ({"spec": spec, "priority": "high"}, "unknown job field 'priority'"),
            ({"spec": spec, "tags": 5}, "unknown job field 'tags'"),
            ({"spec": spec, "variant": ["ASAP"]}, "unknown job field 'variant'"),
            ({"spec": spec, "scheduler": {"validate": False}}, "unknown scheduler field 'validate'"),
            ({"spec": spec, "master_seed": "x"}, "malformed job field 'master_seed'"),
            ({"instance": 7}, "malformed job field 'instance'"),
            (5, "must be a JSON object"),
            ({"spec": 5}, "malformed job spec"),
        ]:
            path = self._requests_file(tmp_path, [entry])
            with pytest.raises(SystemExit) as exit_info:
                main(["batch", str(path)])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err

    def test_batch_malformed_inline_instance_errors(self, capsys, tmp_path):
        # A malformed payload is only discovered at execution time, so it
        # surfaces as a backend failure with the facade's exit code 4.
        path = self._requests_file(
            tmp_path, [{"instance": {"bogus": 1}, "variants": ["ASAP"]}]
        )
        assert main(["batch", str(path)]) == 4
        err = capsys.readouterr().err
        assert "backend-failure" in err
        assert "missing field" in err

    def test_batch_non_numeric_spec_field_errors(self, capsys, tmp_path):
        path = self._requests_file(
            tmp_path, [{"spec": {"family": "chain", "tasks": "many"}}]
        )
        with pytest.raises(SystemExit):
            main(["batch", str(path)])
        assert "malformed job spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"spec": {"family": "chain", "tasks": 6, "cluster": "huge"}},
             "unknown cluster 'huge'"),
            ({"spec": {"family": "chain", "tasks": 6, "scenario": "S9"}},
             "unknown scenario 'S9'"),
            ({"spec": {"family": "chain", "tasks": 6, "deadline_factor": 0.5}},
             "deadline_factor must be >= 1"),
            ({"spec": {"family": "chain", "tasks": 6}, "scheduler": {"window": -1}},
             "window must be non-negative"),
            ({"spec": {"family": "chain", "tasks": 6}, "variants": "ASAP"},
             "malformed job field 'variants'"),
        ],
    )
    def test_batch_bad_values_are_parser_errors(self, capsys, tmp_path, entry, message):
        path = self._requests_file(tmp_path, [entry])
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(path)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_batch_unknown_variant_exit_code(self, capsys, tmp_path):
        path = self._requests_file(tmp_path, [
            {"spec": {"family": "chain", "tasks": 6, "cluster": "single"},
             "variants": ["NOPE"]},
        ])
        assert main(["batch", str(path)]) == 3
        assert "unknown algorithm variant" in capsys.readouterr().err

    def test_batch_rejects_nonpositive_cache_size(self, capsys, tmp_path):
        path = self._requests_file(tmp_path, [
            {"spec": {"family": "chain", "tasks": 6, "cluster": "single"},
             "variants": ["ASAP"]},
        ])
        with pytest.raises(SystemExit):
            main(["batch", str(path), "--cache-size", "0"])
        assert "--cache-size must be positive" in capsys.readouterr().err


class TestMalformedInstanceArguments:
    """Every entry point checks an instance spec once, the same way.

    A bad size, deadline factor or seed exits with status 2 and a message,
    never with a traceback: a parser error on the command line, a rejected
    job in a batch file.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["schedule", "--tasks", "0", "--family", "chain"], "tasks must be positive"),
            (["schedule", "--tasks", "-3", "--variants", "ASAP"], "tasks must be positive"),
            (["schedule", "--seed", "-1", "--family", "chain", "--tasks", "6"],
             "seed must be non-negative"),
            (["export", "--family", "chain", "--tasks", "6", "--deadline-factor", "0.5",
              "--out", "OUT"], "deadline_factor must be >= 1"),
            (["export", "--family", "chain", "--tasks", "6", "--seed", "-1", "--out", "OUT"],
             "seed must be non-negative"),
            (["grid", "--seed", "-1", "--families", "chain", "--sizes", "6",
              "--scenarios", "S1", "--deadline-factors", "1.5", "--variants", "ASAP"],
             "seed must be non-negative"),
            (["grid", "--families", "chain", "--sizes", "0", "--scenarios", "S1",
              "--deadline-factors", "1.5", "--variants", "ASAP"], "tasks must be positive"),
        ],
    )
    def test_command_line(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "x.json") if arg == "OUT" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"spec": {"family": "chain", "tasks": 6, "seed": -1}}, "seed must be non-negative"),
            ({"spec": {"family": "chain", "tasks": 6}, "master_seed": -1},
             "master_seed must be non-negative"),
        ],
    )
    def test_batch_entry(self, capsys, tmp_path, entry, message):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
