"""Unit tests for the throughput bench harness (repro.bench)."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.bench import DEFAULT_WORKLOADS, compare_documents, measure_config
from repro.cli import main
from repro.persist import read_json
from repro.sim.system import SCHEMES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A tiny grid so the whole module runs in seconds.
FAST = [
    "--schemes", "noswap",
    "--ops", "200",
    "--warmup-ops", "100",
    "--repeats", "1",
]


def run_bench_cli(tmp_path, *extra):
    argv = ["bench", *FAST, "--out-dir", str(tmp_path), *extra]
    return main(argv)


class TestBenchJson:
    def test_writes_valid_document(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "unit") == 0
        document = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert document["label"] == "unit"
        assert set(document["params"]) == {
            "scale", "warmup_ops", "measure_ops", "seed", "repeats"
        }
        assert list(document["results"]) == ["noswap/milcx4"]
        entry = document["results"]["noswap/milcx4"]
        assert entry["ops_per_sec"] > 0
        assert entry["ops"] == 200 * 4  # milcx4 runs four cores
        assert entry["wall_seconds_best"] <= entry["wall_seconds_total"]
        assert len(entry["stats_digest"]) == 16
        assert isinstance(document["git_rev"], str)

    def test_document_has_the_documented_top_level_keys(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "keys") == 0
        document = read_json(tmp_path / "BENCH_keys.json")
        assert set(document) == {
            "label", "git_rev", "quick", "params", "results",
            "total_wall_seconds",
        }

    def test_bench_leaves_the_process_environment_alone(self, tmp_path):
        """Nothing in the simulator runs a thread pool, so a bench run has
        no thread-count variables to pin."""
        before = dict(os.environ)
        assert run_bench_cli(tmp_path, "--label", "env") == 0
        assert dict(os.environ) == before

    def test_quick_flag_recorded(self, tmp_path):
        assert run_bench_cli(tmp_path, "--quick", "--label", "q") == 0
        document = json.loads((tmp_path / "BENCH_q.json").read_text())
        assert document["quick"] is True

    def test_unknown_scheme_rejected(self, tmp_path):
        # A usage error at parse time, as on every other command.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--schemes", "bogus", "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2

    def test_stats_digest_is_deterministic(self):
        kwargs = dict(scale=1024, warmup_ops=100, measure_ops=200,
                      seed=0, repeats=1)
        a = measure_config("noswap", "milcx4", **kwargs)
        b = measure_config("noswap", "milcx4", **kwargs)
        assert a["stats_digest"] == b["stats_digest"]


class TestCompareGate:
    @staticmethod
    def doc(rate):
        return {"results": {"noswap/milcx4": {"ops_per_sec": rate}}}

    def test_within_tolerance_passes(self):
        problems = compare_documents(self.doc(80.0), self.doc(100.0), 0.30)
        assert problems == []

    def test_beyond_tolerance_fails(self):
        problems = compare_documents(self.doc(60.0), self.doc(100.0), 0.30)
        assert len(problems) == 1
        assert "noswap/milcx4" in problems[0]

    def test_improvement_passes(self):
        assert compare_documents(self.doc(250.0), self.doc(100.0), 0.30) == []

    def test_configs_missing_from_current_are_ignored(self):
        current = {"results": {}}
        assert compare_documents(current, self.doc(100.0), 0.30) == []

    def test_ci_baseline_gates_every_default_grid_cell(self):
        """CI's perf-smoke step gates ``bench --quick`` against a committed
        baseline.  Cells missing from either document are skipped, so the
        gate only bites if the baseline has a row under the key the
        default grid writes (bare ``scheme/workload``) for every cell,
        whatever other rows, such as older ``@scalar`` ones, it holds."""
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        match = re.search(r"--compare\s+(\S+)", workflow)
        assert match is not None, "the perf-smoke step names no baseline"
        baseline = json.loads((REPO_ROOT / match.group(1)).read_text())
        grid = {
            f"{scheme}/{workload}"
            for scheme in SCHEMES
            for workload in DEFAULT_WORKLOADS
        }
        assert grid <= set(baseline["results"])

    def test_cli_gate_fails_on_regression(self, tmp_path, capsys):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        baseline_path = tmp_path / "BENCH_base.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["results"]["noswap/milcx4"]["ops_per_sec"] *= 1000
        # Hand-edited documents must drop the integrity stamp (the
        # checksummed reader would otherwise — correctly — reject them).
        baseline.pop("__persist__", None)
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(baseline))
        assert run_bench_cli(
            tmp_path, "--label", "gate", "--compare", str(inflated)
        ) == 1
        assert "regression" in capsys.readouterr().out

    def test_cli_gate_fails_when_nothing_is_compared(self, tmp_path, capsys):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        capsys.readouterr()
        assert run_bench_cli(
            tmp_path, "--workloads", "lbmx4", "--label", "other",
            "--compare", str(tmp_path / "BENCH_base.json"),
        ) == 1
        captured = capsys.readouterr()
        assert "no regressions" not in captured.out
        assert "noswap/lbmx4" in captured.err
        assert "noswap/milcx4" in captured.err

    def test_cli_gate_passes_against_own_output(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        assert run_bench_cli(
            tmp_path, "--label", "again",
            "--compare", str(tmp_path / "BENCH_base.json"),
            "--max-regression", "0.95",
        ) == 0
