"""The repository itself stays lint-clean, and violations are caught.

These run ``python -m repro lint`` as a subprocess — the same invocation
CI and developers use — so they cover the CLI wiring, the facts cache,
and the rule set end to end.  Runs against the repository write their
facts cache under ``tmp_path``, so a cache left in the checkout by an
older analyzer never decides a verdict here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(*argv, cwd=None, src=REPO_ROOT / "src"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_repository_tip_is_lint_clean(tmp_path):
    result = run_lint("--cache", str(tmp_path / "cache.json"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_json_format_is_parseable_and_consistent(tmp_path):
    result = run_lint("--cache", str(tmp_path / "cache.json"), "--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["exit_code"] == 0
    assert document["failing"] == 0
    assert document["files_checked"] > 50


def test_repository_tip_is_program_clean():
    """A cold `repro lint` is clean at repo tip."""
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


def test_cache_from_an_older_analyzer_is_not_served(tmp_path):
    """Facts cached before an extractor edit are extracted afresh: the
    warm run after the edit agrees with a cold one."""
    src = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src" / "repro", src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    project = tmp_path / "project"
    (project / "sim").mkdir(parents=True)
    (project / "sim" / "model.py").write_text(
        "def tick(stats):\n    stats.observe('sim/latency', 1.0)\n"
    )
    (project / "sim" / "report.py").write_text(
        "def table(stats):\n    return stats.mean('sim/latency')\n"
    )
    cache = tmp_path / "cache.json"
    args = ("--root", str(project), "--format", "json", "sim")
    before = run_lint("--cache", str(cache), *args, src=src)
    assert before.returncode == 0, before.stdout + before.stderr

    # The extractor stops treating observe() as a record site.
    extract = src / "repro" / "lint" / "program" / "extract.py"
    text = extract.read_text()
    edited = text.replace('{"add", "observe"}', '{"add"}')
    assert edited != text
    extract.write_text(edited)

    warm = run_lint("--cache", str(cache), *args, src=src)
    cold = run_lint("--no-cache", *args, src=src)
    warm_findings = json.loads(warm.stdout)["findings"]
    assert warm_findings == json.loads(cold.stdout)["findings"]
    assert [f["rule"] for f in warm_findings] == ["RL101"]


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
        "--no-cache", "--root", str(tmp_path),
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
    result = run_lint("--root", str(tmp_path), "sim")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RL001" in result.stdout
    assert "RL002" in result.stdout


def test_seeded_violation_report_in_json(tmp_path):
    bad = tmp_path / "mem" / "pool.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(now: Cycles, size: Bytes):\n    return now + size\n")
    result = run_lint("--root", str(tmp_path), "--format", "json", "mem")
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert [f["rule"] for f in document["findings"]] == ["RL004"]
