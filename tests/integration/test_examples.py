"""The example scripts must run end to end (they are documentation)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example(
            "quickstart.py",
            "--scale", "1024", "--measure-ops", "800", "--warmup-ops", "800",
        )
        assert result.returncode == 0, result.stderr
        assert "IPC" in result.stdout
        assert "swap buffers" in result.stdout

    def test_quickstart_other_workload(self):
        result = run_example(
            "quickstart.py",
            "--workload", "mix2",
            "--scale", "1024", "--measure-ops", "500", "--warmup-ops", "500",
        )
        assert result.returncode == 0, result.stderr
        assert "mix2" in result.stdout

    def test_compare_schemes(self):
        result = run_example(
            "compare_schemes.py",
            "--workloads", "milcx4",
            "--scale", "1024", "--measure-ops", "800", "--warmup-ops", "1200",
        )
        assert result.returncode == 0, result.stderr
        for scheme in ("noswap", "mempod", "pom", "pageseer"):
            assert scheme in result.stdout

    def test_hint_anatomy(self):
        result = run_example("hint_anatomy.py")
        assert result.returncode == 0, result.stderr
        assert "MMU-triggered prefetch swap started" in result.stdout
        assert "Step 5" in result.stdout

    def test_extensions_tour(self):
        result = run_example(
            "extensions_tour.py",
            "--scale", "1024", "--measure-ops", "600", "--warmup-ops", "800",
        )
        assert result.returncode == 0, result.stderr
        assert "CAMEO" in result.stdout or "cameo" in result.stdout
        assert "DMA freeze" in result.stdout
        assert "total structure area" in result.stdout

    def test_analysis_deep_dive(self):
        result = run_example(
            "analysis_deep_dive.py", "--scale", "1024", "--ops", "1500",
        )
        assert result.returncode == 0, result.stderr
        assert "Swap lead times" in result.stdout
        assert "AMMAT decomposition" in result.stdout

    def test_full_evaluation_quick(self, tmp_path):
        env_cache = tmp_path / "cache"
        import os

        result = subprocess.run(
            [
                sys.executable, str(EXAMPLES / "full_evaluation.py"),
                "--quick", "--scale", "1024",
                "--measure-ops", "600", "--warmup-ops", "900",
                "--out", str(tmp_path / "report.txt"),
            ],
            capture_output=True,
            text=True,
            timeout=900,
            env={**os.environ, "REPRO_CACHE_DIR": str(env_cache)},
        )
        assert result.returncode == 0, result.stderr
        report = (tmp_path / "report.txt").read_text()
        assert "Figure 14" in report
        assert "Table III" in report
