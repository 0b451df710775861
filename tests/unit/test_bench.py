"""Unit tests for the throughput bench harness (repro.bench)."""

import json
import re
from pathlib import Path

from repro.bench import DEFAULT_WORKLOADS, compare_documents, measure_config
from repro.cli import main
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

    def test_quick_flag_recorded(self, tmp_path):
        assert run_bench_cli(tmp_path, "--quick", "--label", "q") == 0
        document = json.loads((tmp_path / "BENCH_q.json").read_text())
        assert document["quick"] is True

    def test_unknown_scheme_rejected(self, tmp_path):
        assert main(["bench", "--schemes", "bogus",
                     "--out-dir", str(tmp_path)]) == 2

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

    def test_cli_gate_passes_against_own_output(self, tmp_path):
        assert run_bench_cli(tmp_path, "--label", "base") == 0
        assert run_bench_cli(
            tmp_path, "--label", "again",
            "--compare", str(tmp_path / "BENCH_base.json"),
            "--max-regression", "0.95",
        ) == 0
