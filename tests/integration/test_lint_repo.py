"""The repository itself stays lint-clean, and violations are caught.

These run ``python -m repro lint`` as a subprocess — the same invocation
CI and developers use — so they cover the CLI wiring, the baseline file,
and the rule set end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_repository_tip_is_lint_clean():
    result = run_lint()
    assert result.returncode == 0, result.stdout + result.stderr


def test_json_format_is_parseable_and_consistent():
    result = run_lint("--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["exit_code"] == 0
    assert document["failing"] == 0
    assert document["files_checked"] > 50


def test_baseline_entries_all_carry_justifications():
    document = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    # The baseline may legitimately be empty (every grandfathered finding
    # has been fixed); any entry that remains needs a real justification.
    assert document["version"] == 1
    for entry in document["findings"]:
        assert entry["comment"], f"baseline entry {entry['fingerprint']} needs a comment"
        assert "TODO" not in entry["comment"]


def test_repository_tip_is_program_clean():
    """A cold `repro lint` is clean at repo tip (modulo baseline)."""
    result = run_lint("--no-cache", "--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["failing"] == 0
    # RL103's reachability proof ran: zero unsuppressed violations.
    assert not [
        f for f in document["findings"] if f["rule"] == "RL103"
    ], "checkpoint-reachability proof regressed"


def test_program_graph_dot_dump():
    result = run_lint("--no-cache", "--graph", "dot")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("digraph callgraph {")
    assert '"repro.sim.system:System.__init__"' in result.stdout


def test_program_cache_round_trip_is_stable(tmp_path):
    cache = tmp_path / "cache.json"
    cold = run_lint("--cache", str(cache), "--format", "json")
    warm = run_lint("--cache", str(cache), "--format", "json")
    assert cold.returncode == 0 and warm.returncode == 0
    assert json.loads(cold.stdout)["findings"] == json.loads(warm.stdout)["findings"]
    assert cache.exists()


def test_seeded_program_violation_fails_the_lint(tmp_path):
    producer = tmp_path / "sim" / "model.py"
    producer.parent.mkdir(parents=True)
    producer.write_text(
        "def tick(stats):\n"
        "    stats.add('sim/requests', 1)\n"
    )
    consumer = tmp_path / "report" / "figs.py"
    consumer.parent.mkdir(parents=True)
    consumer.write_text(
        "def table(stats):\n"
        "    return stats.get('sim/reqests')\n"
    )
    result = run_lint(
        "--no-cache", "--no-baseline", "--root", str(tmp_path),
        "sim", "report",
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RL101" in result.stdout
    assert 'did you mean "sim/requests"?' in result.stdout


def test_seeded_violations_fail_the_lint(tmp_path):
    bad = tmp_path / "sim" / "model.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import random\n"
        "def tick(stats, kind):\n"
        "    stats.add(f'hmc/req_{kind}')\n"
    )
    result = run_lint("--no-baseline", "--root", str(tmp_path), "sim")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RL001" in result.stdout
    assert "RL002" in result.stdout


def test_seeded_violation_report_in_json(tmp_path):
    bad = tmp_path / "mem" / "pool.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(now: Cycles, size: Bytes):\n    return now + size\n")
    result = run_lint(
        "--no-baseline", "--root", str(tmp_path), "--format", "json", "mem"
    )
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert [f["rule"] for f in document["findings"]] == ["RL004"]
