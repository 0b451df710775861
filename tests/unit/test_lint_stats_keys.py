"""Stats-key discipline: RL002's dynamic keys at record sites (calls and
live-dict writes, in the simulation packages and in hot functions), and
RL101's liveness and near-duplicate (typo'd) keys."""

from pathlib import Path

from repro.lint.engine import Severity, all_rules, lint_paths
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

    def test_self_key_attribute_flagged(self, tmp_path):
        """A key built at run time and parked on ``self`` is as dynamic as
        one built at the record site."""
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
        (finding,) = report.failing
        assert finding.line == 6
        assert "non-literal stats key" in finding.message


class TestLiveDictWrites:
    """Writes into the registry's live dicts are record sites too."""

    def test_dynamic_live_dict_writes_flagged_once_each(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "def tick(stats, kind):\n"
                    "    counters = stats._counters\n"
                    "    counters[f'hmc/req_{kind}'] += 1.0\n"
                    "    stats._counters['hmc/x_' + kind] += 1.0\n"
                )
            },
        )
        assert [(f.rule, f.line) for f in report.failing] == [
            ("RL002", 3), ("RL002", 4),
        ]
        assert "f-string stats key" in report.failing[0].message
        assert "non-literal stats key" in report.failing[1].message

    def test_every_registry_dict_is_checked(self, tmp_path):
        report = run(
            tmp_path,
            {
                "core/model.py": (
                    "def tick(self, name, value):\n"
                    "    self.stats._sums[name] += value\n"
                    "    self.stats._counts[name] += 1\n"
                    "    self.stats._maxima[name] = value\n"
                )
            },
        )
        assert [f.line for f in report.failing] == [2, 3, 4]

    def test_literal_and_table_live_dict_writes_clean(self, tmp_path):
        report = run(
            tmp_path,
            {
                "sim/model.py": (
                    "_KEYS = {'dram': 'hmc/serviced_dram', 'nvm': 'hmc/serviced_nvm'}\n"
                    "def tick(stats, source, ammat):\n"
                    "    counters = stats._counters\n"
                    "    counters['hmc/requests'] += 1.0\n"
                    "    counters[_KEYS[source]] += 1.0\n"
                    "    stats._sums['hmc/ammat'] += ammat\n"
                )
            },
        )
        assert report.findings == []

    def test_other_dicts_are_not_record_sites(self, tmp_path):
        report = run(
            tmp_path,
            {
                "core/hpt.py": (
                    "def touch(self, page, name):\n"
                    "    self._counters[page] += 1\n"
                    "    counters = self._counters\n"
                    "    counters[f'x/{name}'] = 0\n"
                )
            },
        )
        assert report.findings == []


HOT_FSTRING = (
    "# repro-hot\n"
    "def step(stats, level):\n"
    "    stats.add(f'cache/l{level}_hits')\n"
)


class TestHotFunctions:
    """RL002 follows ``# repro-hot`` out of the simulation packages."""

    @staticmethod
    def hot(tmp_path: Path, text: str, relpath: str = "workloads/gen.py"):
        return run(tmp_path, {relpath: text}).findings

    def test_fstring_key_in_hot_function_flagged(self, tmp_path):
        (finding,) = self.hot(tmp_path, HOT_FSTRING)
        assert finding.rule == "RL002"
        assert "f-string stats key" in finding.message

    def test_concatenated_key_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats, name):\n"
            "    stats.observe('walk/' + name, 1.0)\n"
        )
        assert self.hot(tmp_path, text)

    def test_format_key_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats, name):\n"
            "    stats.add('walk/{}'.format(name))\n"
        )
        assert self.hot(tmp_path, text)

    def test_literal_key_is_clean(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats):\n"
            "    stats.add('cache/l1_hits')\n"
        )
        assert self.hot(tmp_path, text) == []

    def test_literal_table_key_is_clean(self, tmp_path):
        text = (
            "_KEYS = ('cache/l1_hits', 'cache/l2_hits')\n"
            "# repro-hot\n"
            "def step(stats, level):\n"
            "    stats.add(_KEYS[level])\n"
        )
        assert self.hot(tmp_path, text) == []

    def test_fstring_outside_hot_function_not_flagged(self, tmp_path):
        text = (
            "def summary(stats, level):\n"
            "    stats.add(f'cache/l{level}_hits')\n"
        )
        assert self.hot(tmp_path, text) == []

    def test_non_stats_receiver_is_clean(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(queue, name):\n"
            "    queue.add(f'job/{name}')\n"
        )
        assert self.hot(tmp_path, text) == []

    def test_hot_fstring_in_sim_package_is_one_finding(self, tmp_path):
        """RL002 owns the property: the full rule set reports the hot
        f-string once, not once per rule."""
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "core.py").write_text(HOT_FSTRING)
        report = lint_paths(["."], root=tmp_path, rules=all_rules())
        assert [(f.rule, f.line) for f in report.findings] == [("RL002", 3)]


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
