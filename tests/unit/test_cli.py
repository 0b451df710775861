"""Unit tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import DEFAULT_MEASURE_OPS, DEFAULT_SCALE, DEFAULT_WARMUP_OPS

SRC = Path(__file__).resolve().parents[2] / "src"


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

    def test_sizing_defaults_are_the_runners_paper_sizing(self):
        """`report` with no sizing flags renders the operating point
        EXPERIMENTS.md documents, the one `benchmarks/` caches."""
        args = build_parser().parse_args(["report"])
        assert (args.scale, args.measure_ops, args.warmup_ops) == (
            DEFAULT_SCALE, DEFAULT_MEASURE_OPS, DEFAULT_WARMUP_OPS,
        )

    def test_variant_choices(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "pageseer", "--workload", "lbmx4",
             "--variant", "nocorr"]
        )
        assert args.variant == "nocorr"

    def test_experiment_variants_parse_in_a_fresh_process(self):
        """``--variant`` choices come from the one variant table, not from
        whichever experiment modules happened to be imported first."""
        code = (
            "from repro.cli import build_parser\n"
            "run = build_parser().parse_args(['run', '--scheme', 'pageseer',"
            " '--workload', 'lbmx4', '--variant', 'partial'])\n"
            "sweep = build_parser().parse_args(['sweep', '--variants',"
            " 'dramcap_x2'])\n"
            "print(run.variant, *sweep.variants)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        parsed = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert parsed.returncode == 0, parsed.stderr
        assert parsed.stdout.split() == ["partial", "dramcap_x2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scheme", "pageseer", "--workload", "lbmx4",
             "--engine", "scalar"],
            ["bench", "--engines", "scalar"],
            ["lint", "--program"],
            ["lint", "--baseline", "lint-baseline.json"],
            ["lint", "--no-baseline"],
            ["lint", "--update-baseline"],
        ],
        ids=["run-engine", "bench-engines", "lint-program", "lint-baseline",
             "lint-no-baseline", "lint-update-baseline"],
    )
    def test_run_mode_flags_are_rejected(self, argv, capsys):
        """Scripts still passing the removed run-mode flags fail at parse
        time rather than run with the flag silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scheme", "pageseer", "--workload", "gupsx4"],
            ["energy", "--workload", "bogus"],
            ["trace-record", "--workload", "bogus", "--out", "x.trace"],
            ["report", "--workloads", "lbmx4", "bogus"],
            ["sweep", "--workloads", "bogus"],
            ["bench", "--workloads", "bogus", "--schemes", "pageseer", "--quick"],
        ],
        ids=["run", "energy", "trace-record", "report", "sweep", "bench"],
    )
    def test_unknown_workload_is_a_usage_error(self, argv, capsys):
        """An unknown workload name exits 2 at parse time, as an unknown
        scheme does, rather than with a traceback from the lookup."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweepd", "serve", "--root", "svc"],
            ["sweepd", "submit", "--workloads", "lbmx4"],
        ],
        ids=["sweepd-serve", "sweepd-submit"],
    )
    def test_removed_sweepd_command_is_rejected(self, argv, capsys):
        """``repro sweep`` is the sweep service's one client: scripts still
        calling the removed ``sweepd`` command fail at parse time."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'sweepd'" in capsys.readouterr().err

    def test_negative_sweep_jobs_is_a_usage_error(self, tmp_path, capsys):
        """No worker would ever drain the sweep: exit 2 at parse time
        instead of polling forever."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--jobs", "-1", "--workloads", "lbmx4",
                  "--checkpoint-root", str(tmp_path / "svc")])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "svc").exists()

    def test_building_the_parser_leaves_the_analyzer_unloaded(self):
        """Every command builds the parser; only a lint run pays for
        importing the analyzer."""
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro.lint'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert "repro.lint.engine" not in loaded
        assert not [m for m in loaded if m.split(".")[:3] == ["repro", "lint", "program"]]


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
