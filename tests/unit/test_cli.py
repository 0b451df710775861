"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_scheme_unless_resuming(self, capsys):
        # --scheme/--workload are optional at parse time (a --resume run
        # takes both from the checkpoint header) but required without it.
        args = build_parser().parse_args(["run", "--workload", "lbmx4"])
        assert args.scheme is None
        assert main(["run", "--workload", "lbmx4"]) == 2
        assert "--scheme and --workload are required" in capsys.readouterr().err

    def test_run_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scheme", "bogus", "--workload", "lbmx4"]
            )

    def test_variant_choices(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "pageseer", "--workload", "lbmx4",
             "--variant", "nocorr"]
        )
        assert args.variant == "nocorr"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scheme", "pageseer", "--workload", "lbmx4",
             "--engine", "scalar"],
            ["bench", "--engines", "scalar"],
        ],
        ids=["run-engine", "bench-engines"],
    )
    def test_run_mode_flags_are_rejected(self, argv, capsys):
        """Scripts still passing the removed run-mode flags fail at parse
        time rather than run with the flag silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        for scheme in ("pageseer", "pom", "mempod", "cameo", "noswap"):
            assert scheme in out

    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "lbmx4" in out
        assert "mix6" in out
        assert out.count("\n") == 26

    def test_run_command(self, capsys):
        code = main([
            "run", "--scheme", "noswap", "--workload", "milcx4",
            "--scale", "1024", "--measure-ops", "300", "--warmup-ops", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "ammat" in out

    def test_energy_command(self, capsys):
        code = main([
            "energy", "--workload", "milcx4",
            "--scale", "1024", "--measure-ops", "300", "--warmup-ops", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "prtc" in out
        assert "TOTAL" in out

    def test_trace_record_and_run(self, capsys, tmp_path):
        trace = tmp_path / "c0.trace"
        assert main([
            "trace-record", "--workload", "milcx4", "--core", "0",
            "--count", "500", "--out", str(trace), "--scale", "1024",
        ]) == 0
        assert trace.exists()
        assert main([
            "trace-run", "--traces", str(trace), "--scheme", "noswap",
            "--scale", "1024", "--measure-ops", "200", "--warmup-ops", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded 500 ops" in out
        assert "ipc" in out

    def test_report_command_restricted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_file = tmp_path / "report.txt"
        code = main([
            "report", "--workloads", "milcx4",
            "--scale", "1024", "--measure-ops", "300", "--warmup-ops", "400",
            "--out", str(out_file),
        ])
        assert code == 0
        assert "Figure 14" in out_file.read_text()
