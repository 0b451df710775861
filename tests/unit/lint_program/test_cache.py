"""Analysis cache: hit/miss accounting, invalidation, pruning, versioning."""

import json
import shutil
from pathlib import Path

from repro.lint.program import facts
from repro.lint.program.cache import AnalysisCache
from repro.lint.program.facts import FACTS_VERSION

from tests.unit.lint_program.helpers import lint_project, write_project

PROJECT = {
    "sim/a.py": "def f(stats):\n    stats.add('sim/x', 1)\n",
    "sim/b.py": "def g(stats):\n    return stats.get('sim/x')\n",
}


def test_cold_then_warm_run(tmp_path):
    write_project(tmp_path, PROJECT)
    cache_path = tmp_path / "cache.json"
    report1, engine1 = lint_project(tmp_path, cache_path=cache_path)
    assert engine1.last_program_model.cache_misses == 2
    assert engine1.last_program_model.cache_hits == 0
    report2, engine2 = lint_project(tmp_path, cache_path=cache_path)
    assert engine2.last_program_model.cache_hits == 2
    assert engine2.last_program_model.cache_misses == 0
    # Identical conclusions either way.
    assert [f.as_dict() for f in report1.findings] == [
        f.as_dict() for f in report2.findings
    ]


def test_edit_invalidates_only_that_file(tmp_path):
    write_project(tmp_path, PROJECT)
    cache_path = tmp_path / "cache.json"
    lint_project(tmp_path, cache_path=cache_path)
    (tmp_path / "sim" / "a.py").write_text(
        "def f(stats):\n    stats.add('sim/x', 2)\n"
    )
    _, engine = lint_project(tmp_path, cache_path=cache_path)
    assert engine.last_program_model.cache_hits == 1
    assert engine.last_program_model.cache_misses == 1


def test_stale_entries_are_pruned_on_save(tmp_path):
    write_project(tmp_path, PROJECT)
    cache_path = tmp_path / "cache.json"
    lint_project(tmp_path, cache_path=cache_path)
    (tmp_path / "sim" / "b.py").unlink()
    lint_project(tmp_path, cache_path=cache_path)
    entries = json.loads(cache_path.read_text())["entries"]
    assert len(entries) == 1
    assert all(key.startswith("sim/a.py:") for key in entries)


def test_cache_of_another_analyzer_digest_degrades_to_cold(tmp_path):
    write_project(tmp_path, PROJECT)
    cache_path = tmp_path / "cache.json"
    lint_project(tmp_path, cache_path=cache_path)
    payload = json.loads(cache_path.read_text())
    assert payload["version"] == FACTS_VERSION
    payload["version"] = "0" * len(FACTS_VERSION)
    for entry in payload["entries"].values():
        entry["version"] = payload["version"]
    cache_path.write_text(json.dumps(payload))
    _, engine = lint_project(tmp_path, cache_path=cache_path)
    assert engine.last_program_model.cache_hits == 0
    assert engine.last_program_model.cache_misses == 2


def test_facts_version_is_a_digest_of_the_analyzer_sources(tmp_path):
    """Any edit under repro/lint changes FACTS_VERSION; nothing is bumped
    by hand."""
    package = Path(facts.__file__).resolve().parents[1]
    copy = tmp_path / "lint"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert facts._lint_sources_digest(copy) == FACTS_VERSION
    rule = copy / "rules" / "units.py"
    rule.write_text(rule.read_text() + "\n")
    assert facts._lint_sources_digest(copy) != FACTS_VERSION


def test_corrupt_cache_file_is_ignored(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json")
    cache = AnalysisCache(cache_path)
    assert cache.get("sim/a.py", "x = 1\n") is None
