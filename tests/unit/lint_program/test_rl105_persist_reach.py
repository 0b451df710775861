"""RL105: raw state writes laundered through out-of-scope helpers.

Besides a raw ``open(path, "w")`` inside the persistence packages
(``tests/unit/test_lint_persist_discipline.py``), RL105 follows call
edges out of those packages and flags the boundary call site when any
transitively-reached helper performs the write.
"""

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def _findings(tmp_path, files):
    write_project(tmp_path, files)
    report, _ = lint_project(tmp_path)
    return findings_for(report, "RL105")


def test_direct_laundering_is_flagged_at_the_call_site(tmp_path):
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from util.io import dump_state\n"
            "def save(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "snapshot/saver.py"
    assert finding.line == 3
    assert "util.io:dump_state" in finding.message
    assert 'open(..., "w")' in finding.message
    assert "util/io.py:2" in finding.message


def test_two_hop_laundering_is_caught(tmp_path):
    findings = _findings(tmp_path, {
        "sweepd/store.py": (
            "from util.outer import record\n"
            "def persist(path, payload):\n"
            "    record(path, payload)\n"
        ),
        "util/outer.py": (
            "from util.inner import spill\n"
            "def record(path, payload):\n"
            "    spill(path, payload)\n"
        ),
        "util/inner.py": (
            "def spill(path, payload):\n"
            "    path.write_text(repr(payload))\n"
        ),
    })
    assert len(findings) == 1
    assert findings[0].path == "sweepd/store.py"
    assert "util.outer:record" in findings[0].message
    assert ".write_text(...)" in findings[0].message


def test_clean_helper_is_not_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from util.fmt import render\n"
            "def save(payload):\n"
            "    return render(payload)\n"
        ),
        "util/fmt.py": (
            "def render(payload):\n"
            "    return repr(payload)\n"
        ),
    })
    assert findings == []


def test_persist_layer_itself_is_exempt(tmp_path):
    """Calling repro.persist from scoped code is the POINT, not a bypass."""
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from repro.persist import atomic_write\n"
            "def save(path, data):\n"
            "    atomic_write(path, data)\n"
        ),
        "repro/persist.py": (
            "import os\n"
            "def atomic_write(path, data):\n"
            "    with open(path, 'wb') as handle:\n"
            "        handle.write(data)\n"
            "    os.replace(path, path)\n"
        ),
    })
    assert findings == []


def test_in_scope_callee_write_is_reported_once_at_the_write(tmp_path):
    """A raw write inside the scope is flagged where it is made, not again
    at each in-scope call site that reaches it."""
    findings = _findings(tmp_path, {
        "snapshot/saver.py": (
            "from snapshot.raw import spill\n"
            "def save(path, payload):\n"
            "    spill(path, payload)\n"
        ),
        "snapshot/raw.py": (
            "def spill(path, payload):\n"
            "    open(path, 'w').write(repr(payload))\n"
        ),
    })
    assert [(f.path, f.line) for f in findings] == [("snapshot/raw.py", 2)]
    assert "bypasses the persistence layer" in findings[0].message


def test_out_of_scope_caller_is_not_flagged(tmp_path):
    """Laundering only matters when the *caller* owns durable state."""
    findings = _findings(tmp_path, {
        "sim/engine.py": (
            "from util.io import dump_state\n"
            "def trace(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    assert findings == []


def test_each_boundary_call_site_reported_once(tmp_path):
    findings = _findings(tmp_path, {
        "experiments/cache.py": (
            "from util.io import dump_state\n"
            "def store(path, payload):\n"
            "    dump_state(path, payload)\n"
            "def store_again(path, payload):\n"
            "    dump_state(path, payload)\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    path.write_bytes(payload)\n"
        ),
    })
    assert len(findings) == 2
    assert sorted(f.line for f in findings) == [3, 5]


def test_pragma_at_the_call_site_suppresses(tmp_path):
    write_project(tmp_path, {
        "snapshot/saver.py": (
            "from util.io import dump_state\n"
            "def save(path, payload):\n"
            "    dump_state(path, payload)"
            "  # repro-lint: disable=RL105\n"
        ),
        "util/io.py": (
            "def dump_state(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(repr(payload))\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL105") == []
    assert report.suppressed >= 1


def test_raw_write_facts_are_extracted(tmp_path):
    write_project(tmp_path, {
        "util/io.py": (
            "import json\n"
            "def dump(path, payload, handle):\n"
            "    json.dump(payload, handle)\n"
            "def read(path):\n"
            "    return path.read_text()\n"
        ),
    })
    _, engine = lint_project(tmp_path)
    facts = engine.last_program_model.table.modules["util.io"]
    assert [w.detail for w in facts.functions["dump"].raw_writes] == [
        "json.dump(...)"
    ]
    assert facts.functions["read"].raw_writes == []
