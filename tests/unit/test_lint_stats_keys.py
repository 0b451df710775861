"""Stats-key discipline: RL002's dynamic keys at record sites, and
RL101's liveness and near-duplicate (typo'd) keys."""

from pathlib import Path

from repro.lint.engine import Severity, lint_paths
from repro.lint.program.rules.stats_liveness import StatsLivenessRule
from repro.lint.rules.stats_keys import StatsKeyRule


def run(tmp_path: Path, files: dict, rules=(StatsKeyRule,)):
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return lint_paths(["."], root=tmp_path, rules=[rule() for rule in rules])


def run_rl101(tmp_path: Path, files: dict):
    return run(tmp_path, files, rules=(StatsLivenessRule,))


def messages(report):
    return [f.message for f in report.findings]


RECORD_AND_READ = {
    "sim/model.py": "def tick(stats):\n    stats.add('hmc/requests')\n",
    "analysis/metrics.py": "def load(stats):\n    return stats.get('hmc/requests')\n",
}


class TestDynamicKeys:
    def test_fstring_key_in_sim_package_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"sim/model.py": "def tick(stats, kind):\n    stats.add(f'hmc/req_{kind}')\n"},
        )
        assert any("f-string stats key" in m for m in messages(report))

    def test_fstring_key_outside_sim_package_tolerated(self, tmp_path):
        report = run(
            tmp_path,
            {"analysis/dump.py": "def tick(stats, kind):\n    stats.add(f'hmc/req_{kind}')\n"},
        )
        assert not any("f-string" in m for m in messages(report))

    def test_arbitrary_expression_key_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"sim/model.py": "def tick(stats, key):\n    stats.add(key)\n"},
        )
        assert any("non-literal stats key" in m for m in messages(report))

    def test_literal_key_table_accepted_and_recorded(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "_KEYS = {'demand': 'hmc/req_demand', 'pte': 'hmc/req_pte'}\n"
                    "def tick(stats, kind):\n"
                    "    stats.add(_KEYS[kind])\n"
                ),
                "analysis/metrics.py": (
                    "def load(stats):\n"
                    "    return stats.get('hmc/req_demand') + stats.get('hmc/req_pte')\n"
                ),
            },
            rules=(StatsKeyRule, StatsLivenessRule),
        )
        assert report.findings == []

    def test_tuple_key_table_accepted(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "_KEYS = ('walk/l0', 'walk/l1')\n"
                    "def tick(stats, level):\n"
                    "    stats.add(_KEYS[level])\n"
                )
            },
        )
        assert report.failing == []

    def test_precomputed_self_key_attribute_accepted(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "class Pool:\n"
                    "    def __init__(self, stats, prefix):\n"
                    "        self.stats = stats\n"
                    "        self._key_hits = prefix + '/hits'\n"
                    "    def tick(self):\n"
                    "        self.stats.add(self._key_hits)\n"
                )
            },
        )
        assert report.failing == []


class TestLiveness:
    def test_read_never_recorded_flagged_with_suggestion(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {
                "sim/model.py": "def tick(stats):\n    stats.add('hmc/requests')\n",
                "analysis/metrics.py": (
                    "def load(stats):\n    return stats.get('hmc/request')\n"
                ),
            },
        )
        flagged = [m for m in messages(report) if "recorded nowhere" in m]
        assert flagged and 'did you mean "hmc/requests"' in flagged[0]

    def test_matching_read_and_record_clean(self, tmp_path):
        report = run_rl101(tmp_path, dict(RECORD_AND_READ))
        assert report.findings == []

    def test_fstring_prefix_covers_pattern_reads(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {
                "analysis/dump.py": (
                    "def tick(stats, kind):\n"
                    "    stats.add(f'hmc/req_{kind}')\n"
                    "def load(stats):\n"
                    "    return stats.get('hmc/req_demand')\n"
                )
            },
        )
        assert not any("recorded nowhere" in m for m in messages(report))

    def test_recorded_never_read_is_informational_only(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {"sim/model.py": "def tick(stats):\n    stats.add('hmc/orphan')\n"},
        )
        unread = [
            f for f in report.findings if "recorded but never read" in f.message
        ]
        assert unread and all(f.severity == Severity.INFO for f in unread)
        assert report.exit_code == 0


class TestNearDuplicates:
    def test_one_character_typo_pair_flagged(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('swap/declined')\n"
                    "    stats.add('swap/declinee')\n"
                )
            },
        )
        assert any("differ by one" in m for m in messages(report))

    def test_digit_variants_are_exempt(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('tlb/l1_hits')\n"
                    "    stats.add('tlb/l2_hits')\n"
                )
            },
        )
        assert not any("differ by one" in m for m in messages(report))

    def test_distant_keys_clean(self, tmp_path):
        report = run_rl101(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats):\n"
                    "    stats.add('swap/requests')\n"
                    "    stats.add('hmc/positive_accesses')\n"
                )
            },
        )
        assert not any("differ by one" in m for m in messages(report))
