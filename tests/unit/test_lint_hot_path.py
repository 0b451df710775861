"""RL005: hot-path hygiene findings (and their absence on clean code)."""

from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.rules.hot_path import HotPathRule


def findings_for(tmp_path: Path, text: str, relpath: str = "sim/core.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    report = lint_paths(["."], root=tmp_path, rules=[HotPathRule()])
    return report.findings


DATACLASS_IN_HOT = """\
from dataclasses import dataclass

@dataclass
class Record:
    value: int

# repro-hot
def step(value):
    return Record(value)
"""


CROSS_FILE_DATACLASS = """\
from other import Record

# repro-hot
def step(value):
    return Record(value)
"""


class TestDataclassConstruction:
    def test_dataclass_in_hot_function_flagged(self, tmp_path):
        (finding,) = findings_for(tmp_path, DATACLASS_IN_HOT)
        assert finding.rule == "RL005"
        assert "Record" in finding.message
        assert "__slots__" in finding.message

    def test_dataclass_defined_in_another_file_flagged(self, tmp_path):
        (tmp_path / "other.py").write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\nclass Record:\n    value: int\n"
        )
        (finding,) = findings_for(tmp_path, CROSS_FILE_DATACLASS)
        assert "other.py" in finding.message

    def test_unmarked_function_is_not_checked(self, tmp_path):
        text = DATACLASS_IN_HOT.replace("# repro-hot\n", "")
        assert findings_for(tmp_path, text) == []

    def test_slots_class_in_hot_function_is_clean(self, tmp_path):
        text = (
            "class Record:\n"
            "    __slots__ = ('value',)\n"
            "    def __init__(self, value):\n"
            "        self.value = value\n"
            "\n"
            "# repro-hot\n"
            "def step(value):\n"
            "    return Record(value)\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_marker_above_decorator_is_recognised(self, tmp_path):
        text = (
            "from dataclasses import dataclass\n"
            "import functools\n"
            "@dataclass\n"
            "class Record:\n"
            "    value: int\n"
            "\n"
            "# repro-hot\n"
            "@functools.lru_cache()\n"
            "def step(value):\n"
            "    return Record(value)\n"
        )
        assert findings_for(tmp_path, text)


class TestDynamicStatsKeys:
    def test_fstring_key_in_hot_function_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats, level):\n"
            "    stats.add(f'cache/l{level}_hits')\n"
        )
        (finding,) = findings_for(tmp_path, text)
        assert "dynamically-built stats key" in finding.message

    def test_concatenated_key_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats, name):\n"
            "    stats.observe('walk/' + name, 1.0)\n"
        )
        assert findings_for(tmp_path, text)

    def test_format_key_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats, name):\n"
            "    stats.add('walk/{}'.format(name))\n"
        )
        assert findings_for(tmp_path, text)

    def test_literal_key_is_clean(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(stats):\n"
            "    stats.add('cache/l1_hits')\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_literal_table_key_is_clean(self, tmp_path):
        text = (
            "_KEYS = ('cache/l1_hits', 'cache/l2_hits')\n"
            "# repro-hot\n"
            "def step(stats, level):\n"
            "    stats.add(_KEYS[level])\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_fstring_outside_hot_function_not_flagged_by_rl005(self, tmp_path):
        text = (
            "def summary(stats, level):\n"
            "    stats.add(f'cache/l{level}_hits')\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_non_stats_receiver_is_clean(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def step(queue, name):\n"
            "    queue.add(f'job/{name}')\n"
        )
        assert findings_for(tmp_path, text) == []


class TestMarkerScope:
    def test_marker_applies_outside_sim_packages(self, tmp_path):
        assert findings_for(
            tmp_path, DATACLASS_IN_HOT, relpath="common/timeline.py"
        )

    def test_pragma_suppression_works(self, tmp_path):
        text = DATACLASS_IN_HOT.replace(
            "    return Record(value)",
            "    return Record(value)  # repro-lint: disable=RL005",
        )
        assert findings_for(tmp_path, text) == []


class TestChunkColumnLoops:
    """PR-9: per-element Python loops over stream-chunk columns."""

    def test_loop_over_chunk_column_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def drain(chunk):\n"
            "    for vaddr in chunk.vaddrs:\n"
            "        pass\n"
        )
        (finding,) = findings_for(tmp_path, text)
        assert "stream-chunk column '.vaddrs'" in finding.message
        assert "drain()" in finding.message
        assert "engine._prep_chunk is the one per-chunk pass" in finding.message

    def test_zip_of_columns_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def drain(chunk):\n"
            "    for vaddr, write in zip(chunk.vaddrs, chunk.writes):\n"
            "        pass\n"
        )
        assert findings_for(tmp_path, text)

    def test_range_len_and_enumerate_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def drain(chunk):\n"
            "    for i in range(len(chunk.instr)):\n"
            "        pass\n"
            "    for i, w in enumerate(chunk.writes):\n"
            "        pass\n"
        )
        assert len(findings_for(tmp_path, text)) == 2

    def test_local_alias_of_column_flagged(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def drain(chunk):\n"
            "    vaddrs = chunk.vaddrs\n"
            "    for vaddr in vaddrs:\n"
            "        pass\n"
        )
        (finding,) = findings_for(tmp_path, text)
        assert "'vaddrs'" in finding.message

    def test_alias_in_other_function_does_not_poison(self, tmp_path):
        """Column aliases are function-scoped: ``vaddrs = chunk.vaddrs``
        in one hot function must not flag a plain-list ``vaddrs`` loop
        in another."""
        text = (
            "# repro-hot\n"
            "def prep(chunk):\n"
            "    vaddrs = chunk.vaddrs\n"
            "    return vaddrs[0]\n"
            "# repro-hot\n"
            "def drain(n):\n"
            "    vaddrs = [0] * n\n"
            "    for vaddr in vaddrs:\n"
            "        pass\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_loop_in_unmarked_function_is_clean(self, tmp_path):
        text = (
            "def cold(chunk):\n"
            "    for vaddr in chunk.vaddrs:\n"
            "        pass\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_indexed_escape_is_clean(self, tmp_path):
        """Scalar indexing of single escapes is the sanctioned pattern."""
        text = (
            "# repro-hot\n"
            "def drain(chunk, i):\n"
            "    return chunk.vaddrs[i], chunk.writes[i]\n"
        )
        assert findings_for(tmp_path, text) == []

    def test_unrelated_attribute_loop_is_clean(self, tmp_path):
        text = (
            "# repro-hot\n"
            "def drain(queue):\n"
            "    for item in queue.pending:\n"
            "        pass\n"
        )
        assert findings_for(tmp_path, text) == []
