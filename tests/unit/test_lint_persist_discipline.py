"""RL105 persist discipline: raw state-file writes made directly inside
the persistence-owning packages must route through ``repro.persist``
(the laundered variant is in ``lint_program/test_rl105_persist_reach``)."""

import pytest

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def _findings(tmp_path, files):
    write_project(tmp_path, files)
    report, _ = lint_project(tmp_path)
    return findings_for(report, "RL105")


@pytest.mark.parametrize("statement,shape", [
    ("open(path, 'w')", 'open(..., "w")'),
    ("open(path, 'wb')", 'open(..., "wb")'),
    ("open(path, 'a')", 'open(..., "a")'),
    ("open(path, 'r+')", 'open(..., "r+")'),
    ("open(path, mode='w')", 'open(..., "w")'),
    ("json.dump(payload, handle)", "json.dump(...)"),
    ("pickle.dump(payload, handle)", "pickle.dump(...)"),
    ("path.write_text('x')", ".write_text(...)"),
    ("path.write_bytes(b'x')", ".write_bytes(...)"),
    ("path.open('w')", '.open("w")'),
    ("path.open(mode='ab')", '.open("ab")'),
])
def test_raw_write_shapes_are_flagged(tmp_path, statement, shape):
    findings = _findings(tmp_path, {
        "snapshot/writer.py": (
            "import json\n"
            "import pickle\n"
            "def save(path, payload, handle):\n"
            f"    {statement}\n"
        ),
    })
    assert len(findings) == 1
    assert shape in findings[0].message
    assert "repro.persist" in findings[0].message


@pytest.mark.parametrize("statement", [
    "open(path)",                 # default mode is read
    "open(path, 'r')",
    "open(path, 'rb')",
    "path.open('r')",
    "path.open()",
    "path.read_text()",
    "json.dumps(payload)",        # string dump: no file handle involved
    "json.load(handle)",
    "pickle.loads(handle)",
    "open(path, mode)",           # non-literal mode: no evidence of writing
])
def test_read_shapes_are_not_flagged(tmp_path, statement):
    findings = _findings(tmp_path, {
        "sweepd/reader.py": (
            "import json\n"
            "import pickle\n"
            "def load(path, payload, handle, mode):\n"
            f"    return {statement}\n"
        ),
    })
    assert findings == []


@pytest.mark.parametrize("relpath", [
    "snapshot/checkpoint.py",
    "sweepd/manifest.py",
    "experiments/runner.py",
    "experiments/nested/deep.py",
    "bench.py",
])
def test_scope_covers_every_persistence_package(tmp_path, relpath):
    findings = _findings(tmp_path, {
        relpath: "def save(path):\n    open(path, 'w')\n",
    })
    assert len(findings) == 1
    assert findings[0].path == relpath


@pytest.mark.parametrize("relpath", [
    "sim/core.py",
    "util/io_helpers.py",
    "figures.py",
])
def test_out_of_scope_files_are_ignored(tmp_path, relpath):
    findings = _findings(tmp_path, {
        relpath: "def save(path):\n    open(path, 'w')\n",
    })
    assert findings == []


def test_pragma_suppresses_a_justified_site(tmp_path):
    write_project(tmp_path, {
        "snapshot/rotate.py": (
            "def rotate(path, target):\n"
            "    target.write_bytes(path.read_bytes())"
            "  # repro-lint: disable=RL105\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL105") == []
    assert report.suppressed >= 1


def test_multiple_sites_each_get_a_finding(tmp_path):
    findings = _findings(tmp_path, {
        "experiments/dumper.py": (
            "import json\n"
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
            "    path.write_text('done')\n"
        ),
    })
    assert len(findings) == 3


def test_repo_tip_is_clean():
    """The repo's own persistence packages honour their discipline."""
    from pathlib import Path

    repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
    report, _ = lint_project(repo_src)
    assert findings_for(report, "RL105") == []


def test_module_level_and_nested_writes_are_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sweepd/journal.py": (
            "open('journal.log', 'a')\n"
            "class Journal:\n"
            "    def flush(self, path):\n"
            "        def spill():\n"
            "            path.write_text('x')\n"
            "        spill()\n"
        ),
    })
    assert sorted(f.line for f in findings) == [1, 5]


@pytest.mark.parametrize("relpath", [
    "snapshot/checkpoint.py",
    "experiments/figures.py",
    "sweepd/aggregator.py",
])
def test_repo_pragmas_guard_real_raw_writes(tmp_path, relpath):
    """Each justified bypass in the repo is load-bearing: without its
    pragma, RL105 flags the write it sits on."""
    from pathlib import Path

    source = Path(__file__).resolve().parents[2] / "src" / "repro" / relpath
    pragma = "  # repro-lint: disable=RL105"
    text = source.read_text()
    assert text.count(pragma) == 1
    pragma_line = text[:text.index(pragma)].count("\n") + 1
    findings = _findings(tmp_path, {relpath: text.replace(pragma, "")})
    assert [f.line for f in findings] == [pragma_line]
