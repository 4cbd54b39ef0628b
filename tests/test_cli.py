"""Tests for the repro-ht-detect subcommand CLI (a thin consumer of repro.api)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.report import SCHEMA_VERSION, DetectionReport


CLEAN_DESIGN = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  always @(posedge clk) stage <= d + 8'h1;
  assign q = stage;
endmodule
"""

TROJANED_DESIGN = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  reg [15:0] bomb;
  always @(posedge clk) begin
    stage <= d + 8'h1;
    bomb <= bomb + 16'h1;
  end
  assign q = (bomb == 16'hffff) ? ~stage : stage;
endmodule
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.v"
    path.write_text(CLEAN_DESIGN)
    return str(path)


@pytest.fixture
def trojaned_file(tmp_path):
    path = tmp_path / "trojan.v"
    path.write_text(TROJANED_DESIGN)
    return str(path)


class TestArgumentParsing:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_verilog_and_benchmark_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--verilog", "x.v", "--benchmark", "AES-T100"])

    def test_top_required_with_verilog(self, clean_file):
        with pytest.raises(SystemExit):
            main(["run", "--verilog", clean_file])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_flag_only_invocation_is_a_usage_error(self, clean_file):
        # Every invocation names its subcommand; flags alone are not
        # mapped onto `run`.
        with pytest.raises(SystemExit) as exit_info:
            main(["--verilog", clean_file, "--top", "widget"])
        assert exit_info.value.code == 2


class TestRunVerilog:
    def test_clean_design_exits_zero(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget"]) == 0
        assert "SECURE" in capsys.readouterr().out

    def test_trojaned_design_exits_one(self, trojaned_file, capsys):
        assert main(["run", "--verilog", trojaned_file, "--top", "widget"]) == 1
        output = capsys.readouterr().out
        assert "TROJAN" in output or "UNCOVERED" in output

    def test_waiver_flag(self, trojaned_file, capsys):
        exit_code = main(["run", "--verilog", trojaned_file, "--top", "widget",
                          "--waive", "bomb"])
        # The waived counter no longer fails a property, but the coverage
        # check still reports it (it is outside the input cone).
        assert exit_code == 1
        assert "coverage" in capsys.readouterr().out

    def test_verbose_streams_property_events(self, clean_file, capsys):
        main(["run", "--verilog", clean_file, "--top", "widget", "--verbose"])
        output = capsys.readouterr().out
        assert "scheduled init property" in output
        assert "holds" in output

    def test_missing_file_reports_error(self, capsys):
        assert main(["run", "--verilog", "/nonexistent/file.v", "--top", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_verilog_reports_error(self, tmp_path, capsys):
        path = tmp_path / "broken.v"
        path.write_text("module broken(input a; endmodule")
        assert main(["run", "--verilog", str(path), "--top", "broken"]) == 2

    def test_explicit_inputs_flag(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget", "--inputs", "d"]) == 0

    def test_inputs_with_whitespace_are_stripped(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", " d "]) == 0

    def test_empty_input_entry_is_a_config_error(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", "d,,q"]) == 2
        assert "empty signal name" in capsys.readouterr().err

    def test_duplicate_input_entry_is_a_config_error(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", "d,d"]) == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--benchmark", "RS232-T2400"],
        ["batch", "RS232-T2400"],
    ])
    def test_empty_input_list_is_a_config_error(self, argv, capsys):
        # An empty --inputs is rejected, never read as "use the defaults".
        assert main(argv + ["--inputs", ""]) == 2
        assert "input list must name at least one signal" in capsys.readouterr().err

    def test_strict_paper_properties_flag(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--strict-paper-properties"]) == 0


class TestRunJson:
    def test_json_report_round_trips(self, trojaned_file, capsys):
        assert main(["run", "--verilog", trojaned_file, "--top", "widget", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["verdict"] == "trojan-suspected"
        restored = DetectionReport.from_dict(data)
        assert restored.to_dict() == data

    def test_json_with_verbose_keeps_stdout_parseable(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--json", "--verbose"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # events went to stderr, not stdout
        assert data["schema_version"] == SCHEMA_VERSION
        assert "scheduled init property" in captured.err

    def test_output_file(self, clean_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--output", str(out)]) == 0
        # summary still on stdout, JSON in the file
        assert "SECURE" in capsys.readouterr().out
        restored = DetectionReport.from_json(out.read_text())
        assert restored.is_secure


class TestRunBenchmark:
    def test_trojaned_benchmark_detected(self, capsys):
        assert main(["run", "--benchmark", "AES-T1400"]) == 1
        assert "init property" in capsys.readouterr().out

    def test_benchmark_json_round_trips(self, capsys):
        assert main(["run", "--benchmark", "AES-T1400", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["design"] == "AES-T1400"
        assert DetectionReport.from_dict(data).to_dict() == data

    def test_unknown_benchmark_reports_error(self, capsys):
        assert main(["run", "--benchmark", "AES-T0"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_check_all_flag(self, capsys):
        assert main(["run", "--benchmark", "AES-T2500", "--check-all"]) == 1

    def test_max_class_flag(self, capsys):
        # Truncating the flow checks fewer properties.  Signals that only the
        # unchecked properties would prove stay uncovered, so even the clean
        # design fails closed instead of reading SECURE.
        assert main(["run", "--benchmark", "RS232-HT-FREE", "--max-class", "1",
                     "--verbose"]) == 1
        assert "fanout property" not in capsys.readouterr().out

    def test_truncated_audit_leaves_the_trojan_uncovered(self, capsys):
        assert main(["run", "--benchmark", "RS232-T2400", "--max-class", "2"]) == 1
        output = capsys.readouterr().out
        assert "UNCOVERED-SIGNALS" in output
        assert "coverage check" in output
        assert "tj_frame_count" in output


class TestListBenchmarks:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        output = capsys.readouterr().out
        assert "AES-T1400" in output and "BasicRSA-T300" in output and "RS232-T2400" in output

    def test_family_filter(self, capsys):
        assert main(["list-benchmarks", "--family", "RS232"]) == 0
        output = capsys.readouterr().out
        assert "RS232-T2400" in output and "AES-T1400" not in output

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["list-benchmarks", "--family", "Z80"])


class TestBatch:
    def test_batch_clean_designs(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "BasicRSA-HT-FREE"]) == 0
        output = capsys.readouterr().out
        assert "2 design(s)" in output and "secure" in output

    def test_batch_flags_trojans(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "RS232-T2400"]) == 1
        assert "trojan-suspected" in capsys.readouterr().out

    def test_batch_family_selection(self, capsys):
        assert main(["batch", "--family", "RS232", "--clean-only"]) == 0
        assert "RS232-HT-FREE" in capsys.readouterr().out

    def test_batch_needs_a_selection(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch"])

    def test_batch_json(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert len(data["reports"]) == 1

    def test_batch_duplicate_names_deduplicated(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "RS232-HT-FREE"]) == 0
        assert "1 design(s)" in capsys.readouterr().out


class TestExecutionFlags:
    def test_jobs_flag_runs_parallel(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--jobs", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # The report carries *effective* parallelism: this one-class design
        # produces a single shard, so only one worker ever runs.
        assert data["execution"]["workers"] == 1

    def test_cache_dir_warm_rerun_reports_hits(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = ["run", "--verilog", clean_file, "--top", "widget",
                "--cache-dir", cache_dir, "--json"]
        assert main(base) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["execution"]["cache_hits"] == 0
        assert cold["execution"]["cache_misses"] > 0
        assert main(base) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["execution"]["cache_hits"] == cold["execution"]["cache_misses"]
        assert warm["solver"]["calls"] == 0

    def test_no_cache_bypasses_a_warm_cache(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = ["run", "--verilog", clean_file, "--top", "widget",
                "--cache-dir", cache_dir, "--json"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["execution"]["cache_hits"] == 0

    def test_run_and_batch_fill_one_config(self, tmp_path, capsys):
        # `run` and `batch` fill a benchmark's recommended waivers the same
        # way, so a waiver named on the command line as well is waived once
        # and the batch replays every class the run cached.
        cache_dir = str(tmp_path / "cache")
        flags = ["--waive", "started", "--cache-dir", cache_dir, "--json"]
        assert main(["run", "--benchmark", "BasicRSA-HT-FREE"] + flags) == 0
        capsys.readouterr()
        assert main(["batch", "BasicRSA-HT-FREE"] + flags) == 0
        execution = json.loads(capsys.readouterr().out)["execution"]
        assert (execution["cache_hits"], execution["cache_misses"]) == (10, 0)

    def test_batch_jobs_flag(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "--jobs", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["execution"]["workers"] == 2

    def test_cache_stats_and_clear(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "--verilog", clean_file, "--top", "widget",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_requires_an_action_and_dir(self):
        with pytest.raises(SystemExit):
            main(["cache"])
        with pytest.raises(SystemExit):
            main(["cache", "stats"])


class TestReportSubcommand:
    def test_report_renders_saved_run(self, trojaned_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--verilog", trojaned_file, "--top", "widget", "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        assert "TROJAN-SUSPECTED" in capsys.readouterr().out

    def test_report_renders_saved_batch(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        main(["batch", "RS232-HT-FREE", "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "1 design(s)" in capsys.readouterr().out

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/report.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        assert main(["report", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_wrong_schema_version(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 999, "design": "x", "verdict": "secure"}))
        assert main(["report", str(path)]) == 2
        assert "schema_version" in capsys.readouterr().err


class TestInternalErrors:
    def test_unexpected_exception_exits_two_not_trojan(self, monkeypatch, capsys):
        # Exit status 1 is the trojan-suspected verdict; a crash must never
        # be mistaken for one.
        import repro.cli as cli

        def crashing_handler(args, parser):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "list-benchmarks", crashing_handler)
        assert main(["list-benchmarks"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert err.rstrip().endswith("error: internal error: RuntimeError")


class TestImportFootprint:
    def test_importing_the_cli_loads_neither_numpy_nor_networkx(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        probe = (
            "import sys, repro.cli\n"
            "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"


class TestCrashExitStatus:
    """A crash anywhere inside an audit exits 2 with its traceback, never 1."""

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_crash_inside_an_audit_exits_two(self, command, clean_file, monkeypatch, capsys):
        from repro.exec.worker import DesignWorkContext

        def overflowing_settle(context, k):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(DesignWorkContext, "settle_class", overflowing_settle)
        argv = (
            ["run", "--verilog", clean_file, "--top", "widget"]
            if command == "run"
            else ["batch", "RS232-HT-FREE"]
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "RecursionError: maximum recursion depth exceeded" in captured.err
        assert captured.err.rstrip().endswith("error: internal error: RecursionError")
        assert "SECURE" not in captured.out and "trojan" not in captured.out.lower()

    def test_repro_errors_stay_one_line_without_traceback(self, capsys):
        assert main(["run", "--benchmark", "AES-T0"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and "internal error" not in err

    def test_keyboard_interrupt_is_not_turned_into_an_exit_status(self, monkeypatch):
        import repro.cli as cli

        def interrupted_handler(args, parser):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "list-benchmarks", interrupted_handler)
        with pytest.raises(KeyboardInterrupt):
            main(["list-benchmarks"])


class TestReportDocument:
    """The JSON document is built only when ``--json`` or ``--output`` asks."""

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_summary_output_never_serializes_the_report(
        self, command, clean_file, monkeypatch, capsys
    ):
        from repro.api import BatchReport

        def refuse(report):
            raise AssertionError("to_json called without --json/--output")

        monkeypatch.setattr(DetectionReport, "to_json", refuse)
        monkeypatch.setattr(BatchReport, "to_json", refuse)
        argv = (
            ["run", "--verilog", clean_file, "--top", "widget"]
            if command == "run"
            else ["batch", "RS232-HT-FREE"]
        )
        assert main(argv) == 0
        assert "secure" in capsys.readouterr().out.lower()

    def test_json_and_output_share_one_document(self, clean_file, tmp_path, monkeypatch, capsys):
        calls = []
        original = DetectionReport.to_json

        def counting_to_json(report):
            calls.append(report)
            return original(report)

        monkeypatch.setattr(DetectionReport, "to_json", counting_to_json)
        out = tmp_path / "report.json"
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--json", "--output", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_text() == capsys.readouterr().out

    def test_document_is_compact_and_key_sorted(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget", "--json"]) == 0
        text = capsys.readouterr().out.strip()
        assert "\n" not in text
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True)


class TestSolverFlags:
    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_help_lists_no_cube_inprocessing_or_kernel_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--no-split", "--split-conflicts", "--split-depth",
                     "--no-inprocess", "--sim-backend", "--no-simplify",
                     "--sim-patterns", "--fraig-rounds"):
            assert flag not in help_text
        assert "--check-timeout" in help_text

    @pytest.mark.parametrize("command", ["run", "batch", "submit"])
    def test_help_lists_no_solver_backend_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--solver-backend" not in capsys.readouterr().out
