"""RL101: cross-module stats liveness (positive and negative fixtures)."""

from repro.lint.engine import LintEngine

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def test_positive_typo_between_sim_and_report_layers(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/reqests')\n"  # typo'd key
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL101")
    warning = [f for f in findings if f.severity.label == "warning"]
    assert len(warning) == 1
    assert warning[0].path == "report/figs.py"
    assert 'sim/reqests' in warning[0].message
    assert 'did you mean "sim/requests"?' in warning[0].message
    assert report.exit_code == 1


def test_negative_matching_keys_pass(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/requests')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []
    assert report.exit_code == 0


def test_reads_through_snapshot_copies_count(tmp_path):
    # Slash-literal reads through snapshot/metric objects count, not only
    # reads through `stats`-named receivers.
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(snapshot):\n"
            "    return snapshot.get('sim/requests')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []


def test_fstring_pattern_prefix_satisfies_reads(tmp_path):
    write_project(tmp_path, {
        "report/model.py": (  # outside sim packages: f-string keys allowed
            "def tick(stats, kind):\n"
            "    stats.add(f'sim/req_{kind}', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/req_load')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    warning = [f for f in findings_for(report, "RL101") if f.severity.label == "warning"]
    assert warning == []


def test_registry_dict_writes_count_as_records(tmp_path):
    # Flattened hot paths record straight into the registry's dicts.
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(self, latency):\n"
            "    stats = self.stats\n"
            "    counters = stats._counters\n"
            "    counters['sim/requests'] += 1.0\n"
            "    stats._sums['sim/latency'] += latency\n"
            "    self.stats._maxima['sim/peak'] = latency\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return (stats.get('sim/requests'), stats.mean('sim/latency'),\n"
            "            stats.maximum('sim/peak'))\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []
    assert report.exit_code == 0


def test_table_keyed_registry_dict_writes_count_as_records(tmp_path):
    # A live-dict write through a literal-key table records every value
    # of the table, as ``stats.add(_TABLE[k])`` does.
    write_project(tmp_path, {
        "sim/model.py": (
            "_SOURCE_KEYS = {'dram': 'sim/from_dram', 'nvm': 'sim/from_nvm'}\n"
            "\n"
            "def tick(self, source):\n"
            "    counters = self.stats._counters\n"
            "    counters[_SOURCE_KEYS[source]] += 1.0\n"
        ),
        "report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/from_dram'), stats.get('sim/from_nvm')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL101") == []
    assert report.exit_code == 0


def test_reads_nested_in_a_compound_statement_header_count(tmp_path):
    # A read inside another call in an `if` header is as much a read as
    # one on its own line.
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "report/figs.py": (
            "def table(stats, out):\n"
            "    if out.write(str(stats.get('sim/requets'))):\n"
            "        pass\n"
            "    return stats.get('sim/requets')\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    warnings = [
        f for f in findings_for(report, "RL101") if f.severity.label == "warning"
    ]
    assert [(f.path, f.line) for f in warnings] == [
        ("report/figs.py", 2), ("report/figs.py", 4),
    ]


def test_recorded_never_read_is_informational(tmp_path):
    write_project(tmp_path, {
        "sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/orphan', 1)\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL101")
    assert len(findings) == 1
    assert findings[0].severity.label == "info"
    assert "sim/orphan" in findings[0].message
    assert report.exit_code == 0


def test_findings_land_only_in_linted_files(tmp_path):
    # The model always spans src/repro; a finding belongs to the file it
    # is anchored in, and is reported only when that file was linted.
    write_project(tmp_path, {
        "src/repro/sim/model.py": (
            "def tick(stats):\n"
            "    stats.add('sim/requests', 1)\n"
        ),
        "src/repro/report/figs.py": (
            "def table(stats):\n"
            "    return stats.get('sim/reqests')\n"
        ),
    })
    engine = LintEngine(root=tmp_path)
    sim_only = engine.run(["src/repro/sim"])
    assert [(f.path, f.severity.label) for f in sim_only.findings] == [
        ("src/repro/sim/model.py", "info"),
    ]
    report_only = engine.run(["src/repro/report"])
    assert [(f.path, f.severity.label) for f in report_only.findings] == [
        ("src/repro/report/figs.py", "warning"),
    ]
