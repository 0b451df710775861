"""RL001: nondeterminism findings (and their absence on clean code)."""

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.rules.determinism import DeterminismRule


def findings_for(tmp_path: Path, text: str, relpath: str = "sim/core.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    report = lint_paths(["."], root=tmp_path, rules=[DeterminismRule()])
    return report.findings


class TestRandomness:
    def test_import_random_flagged(self, tmp_path):
        (finding,) = findings_for(tmp_path, "import random\n")
        assert "DeterministicRng" in finding.message

    def test_from_random_import_flagged(self, tmp_path):
        assert findings_for(tmp_path, "from random import randint\n")

    def test_random_call_flagged(self, tmp_path):
        text = "def f(random):\n    return random.random()\n"
        assert findings_for(tmp_path, text)

    def test_deterministic_rng_is_clean(self, tmp_path):
        text = (
            "from repro.common.rng import DeterministicRng\n"
            "rng = DeterministicRng('victim', 7)\n"
            "x = rng.randint(0, 10)\n"
        )
        assert findings_for(tmp_path, text) == []


class TestWallClocks:
    def test_time_time_flagged(self, tmp_path):
        assert findings_for(tmp_path, "import time\nnow = time.time()\n")

    def test_perf_counter_from_import_flagged(self, tmp_path):
        text = "from time import perf_counter\nt = perf_counter()\n"
        assert findings_for(tmp_path, text)

    def test_datetime_now_flagged(self, tmp_path):
        text = "import datetime\nstamp = datetime.datetime.now()\n"
        assert findings_for(tmp_path, text)

    def test_os_urandom_flagged(self, tmp_path):
        assert findings_for(tmp_path, "import os\nseed = os.urandom(8)\n")

    @pytest.mark.parametrize(
        "text",
        [
            "import os\nseed = os.getrandom(8)\n",
            "import uuid\ntag = uuid.uuid4()\n",
            "from uuid import uuid1\ntag = uuid1()\n",
            "import secrets\nseed = secrets.randbits(32)\n",
            "from secrets import token_hex\ntag = token_hex(8)\n",
        ],
        ids=["os.getrandom", "uuid.uuid4", "from-uuid", "secrets", "from-secrets"],
    )
    def test_every_entropy_source_of_the_extractor_flagged(self, tmp_path, text):
        """RL001 reads RL102's wall-clock and entropy table."""
        (finding,) = findings_for(tmp_path, text)
        assert "wall-clock/entropy call" in finding.message

    def test_time_module_other_functions_clean(self, tmp_path):
        assert findings_for(tmp_path, "import time\ntime.sleep(0)\n") == []


class TestIdKeys:
    def test_id_as_subscript_key_flagged(self, tmp_path):
        text = "table = {}\ndef f(obj):\n    table[id(obj)] = 1\n"
        assert findings_for(tmp_path, text)

    def test_id_in_dict_literal_flagged(self, tmp_path):
        text = "def f(obj):\n    return {id(obj): 1}\n"
        assert findings_for(tmp_path, text)

    def test_id_in_dict_get_flagged(self, tmp_path):
        text = "def f(table, obj):\n    return table.get(id(obj))\n"
        assert findings_for(tmp_path, text)

    def test_stable_key_clean(self, tmp_path):
        text = "def f(table, page):\n    return table.get(page.number)\n"
        assert findings_for(tmp_path, text) == []


class TestSetIteration:
    def test_for_over_set_variable_flagged(self, tmp_path):
        text = "pages = {1, 2, 3}\nfor page in pages:\n    pass\n"
        assert findings_for(tmp_path, text)

    def test_for_over_set_call_flagged(self, tmp_path):
        text = "def f(items):\n    for x in set(items):\n        pass\n"
        assert findings_for(tmp_path, text)

    def test_comprehension_over_self_set_flagged(self, tmp_path):
        text = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.live = set()\n"
            "    def snapshot(self):\n"
            "        return [p for p in self.live]\n"
        )
        assert findings_for(tmp_path, text)

    def test_annotated_set_attribute_flagged(self, tmp_path):
        text = (
            "from typing import Set\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self.live: Set[int] = set()\n"
            "    def drain(self):\n"
            "        for p in self.live:\n"
            "            pass\n"
        )
        assert findings_for(tmp_path, text)

    def test_sorted_set_is_clean(self, tmp_path):
        text = "pages = {1, 2, 3}\nfor page in sorted(pages):\n    pass\n"
        assert findings_for(tmp_path, text) == []

    def test_dict_iteration_is_clean(self, tmp_path):
        text = "pages = {1: 'a'}\nfor page in pages:\n    pass\n"
        assert findings_for(tmp_path, text) == []

    def test_set_pop_flagged(self, tmp_path):
        text = "free = {1, 2}\ndef take():\n    return free.pop()\n"
        assert findings_for(tmp_path, text)

    def test_list_pop_is_clean(self, tmp_path):
        text = "free = [1, 2]\ndef take():\n    return free.pop()\n"
        assert findings_for(tmp_path, text) == []


class TestScoping:
    def test_outside_sim_packages_exempt(self, tmp_path):
        text = "import random\nimport time\nnow = time.time()\n"
        assert findings_for(tmp_path, text, relpath="analysis/plot.py") == []

    def test_all_sim_packages_covered(self, tmp_path):
        for package in ("sim", "mem", "core", "vm", "cache", "baselines"):
            found = findings_for(
                tmp_path, "import random\n", relpath=f"src/repro/{package}/m.py"
            )
            assert found, f"package {package} not covered"
