"""Engine mechanics: suppressions, severities, report rendering."""

from pathlib import Path

from repro.lint.engine import Severity, all_rules, lint_paths
from repro.lint.rules.determinism import DeterminismRule


def write_tree(root: Path, files: dict) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def lint(root: Path, *, rules=None):
    return lint_paths(["."], root=root, rules=rules or [DeterminismRule()])


BAD_IMPORT = "import random\n"


class TestSuppression:
    def test_finding_without_pragma_fails(self, tmp_path):
        write_tree(tmp_path, {"sim/core.py": BAD_IMPORT})
        report = lint(tmp_path)
        assert len(report.failing) == 1
        assert report.exit_code == 1
        assert report.suppressed == 0

    def test_same_line_pragma_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/core.py": "import random  # repro-lint: disable=RL001\n"},
        )
        report = lint(tmp_path)
        assert report.findings == []
        assert report.suppressed == 1
        assert report.exit_code == 0

    def test_comment_line_above_suppresses_next_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/core.py": (
                    "# deliberate: seeds the fuzzer, not the model\n"
                    "# repro-lint: disable=RL001\n"
                    "import random\n"
                )
            },
        )
        report = lint(tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_pragma_on_unrelated_line_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/core.py": (
                    "x = 1  # repro-lint: disable=RL001\n"
                    "import random\n"
                )
            },
        )
        report = lint(tmp_path)
        assert len(report.failing) == 1

    def test_file_pragma_suppresses_everywhere(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/core.py": (
                    "# repro-lint: disable-file=RL001\n"
                    "import random\n"
                    "import random as rng2\n"
                )
            },
        )
        report = lint(tmp_path)
        assert report.findings == []
        assert report.suppressed == 2

    def test_disable_all_suppresses_any_rule(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/core.py": "import random  # repro-lint: disable=all\n"},
        )
        report = lint(tmp_path)
        assert report.findings == []

    def test_file_pragma_stays_in_its_own_file(self, tmp_path):
        # asim/model.py ends with "sim/model.py"; its pragma must not leak.
        write_tree(
            tmp_path,
            {
                "asim/model.py": "# repro-lint: disable-file=RL001\n",
                "sim/model.py": "import random\nx = random.random()\n",
            },
        )
        report = lint_paths(["sim", "asim"], root=tmp_path, rules=[DeterminismRule()])
        assert [(f.rule, f.path) for f in report.failing] == [
            ("RL001", "sim/model.py"), ("RL001", "sim/model.py"),
        ]
        assert report.suppressed == 0

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/core.py": "import random  # repro-lint: disable=RL002\n"},
        )
        report = lint(tmp_path)
        assert len(report.failing) == 1


class TestSeverityAndExitCode:
    def test_info_findings_do_not_fail(self):
        from repro.lint.engine import Finding, LintReport

        report = LintReport(
            findings=[Finding("RL002", Severity.INFO, "a.py", 1, 0, "m")]
        )
        assert report.failing == []
        assert report.exit_code == 0

    def test_parse_error_fails(self, tmp_path):
        write_tree(tmp_path, {"sim/broken.py": "def f(:\n"})
        report = lint(tmp_path)
        assert report.parse_errors
        assert report.exit_code == 1

    def test_non_sim_package_is_exempt_from_rl001(self, tmp_path):
        write_tree(tmp_path, {"analysis/tool.py": BAD_IMPORT})
        report = lint(tmp_path)
        assert report.findings == []


class TestReportRendering:
    def test_json_report_is_machine_readable(self, tmp_path):
        import json

        write_tree(tmp_path, {"sim/core.py": BAD_IMPORT})
        report = lint(tmp_path)
        document = json.loads(report.render_json())
        assert document["exit_code"] == 1
        assert document["failing"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "RL001"
        assert finding["path"] == "sim/core.py"
        assert sorted(finding) == [
            "col", "line", "message", "path", "rule", "severity",
        ]
        assert "baselined" not in document

    def test_text_report_names_the_position(self, tmp_path):
        write_tree(tmp_path, {"sim/core.py": BAD_IMPORT})
        text = lint(tmp_path).render_text()
        assert "sim/core.py:1:0: RL001 [error]" in text
        assert "checked 1 file(s)" in text


class TestRegistry:
    def test_one_rule_per_id(self):
        """The default rule set: five per-file rules, four program rules."""
        ids = [rule.rule_id for rule in all_rules()]
        assert sorted(ids) == [
            "RL001", "RL002", "RL003", "RL004", "RL005",
            "RL101", "RL102", "RL103", "RL105",
        ]
