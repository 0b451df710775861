"""Flow-sensitive taint core: gen/kill, joins, loops, laundering.

Driven through the extractor so the policy callbacks (sources, rng
laundering, stats/state sinks) are the real ones the analyzer ships.
"""

import ast

from repro.lint.program.extract import extract_module_facts


def _flows(source, relpath="sim/mod.py"):
    facts = extract_module_facts(relpath, ast.parse(source))
    return [flow for fn in facts.functions.values() for flow in fn.flows]


def _sink_flows(source, relpath="sim/mod.py"):
    return [flow for flow in _flows(source, relpath) if flow.dst[0] == "sink"]


def test_direct_source_to_stats_sink():
    flows = _sink_flows(
        "import time\n"
        "def f(stats):\n"
        "    stats.add('sim/x', time.time())\n"
    )
    assert len(flows) == 1
    assert flows[0].src == ("source", "time.time()")
    assert flows[0].dst == ("sink", "stats", 'stats key "sim/x"')


def test_reassignment_kills_taint():
    flows = _sink_flows(
        "import time\n"
        "def f(stats):\n"
        "    t = time.time()\n"
        "    t = 0\n"
        "    stats.add('sim/x', t)\n"
    )
    assert flows == []


def test_branch_join_unions_taint():
    flows = _sink_flows(
        "import random\n"
        "def f(stats, cond):\n"
        "    v = 0\n"
        "    if cond:\n"
        "        v = random.random()\n"
        "    stats.add('sim/x', v)\n"
    )
    assert any(flow.src == ("source", "random.random()") for flow in flows)


def test_loop_carried_taint_converges():
    flows = _sink_flows(
        "import random\n"
        "def f(stats, items):\n"
        "    acc = 0\n"
        "    for _ in items:\n"
        "        stats.add('sim/x', acc)\n"
        "        acc = random.random()\n"
    )
    # acc is clean on iteration 1 but tainted on iteration 2: the
    # two-pass loop body must observe the carried taint.
    assert any(flow.src == ("source", "random.random()") for flow in flows)


def test_state_sink_in_sim_class():
    flows = _sink_flows(
        "import os\n"
        "class Engine:\n"
        "    def seed(self):\n"
        "        self.entropy = os.urandom(8)\n"
    )
    assert len(flows) == 1
    assert flows[0].dst == ("sink", "state", "Engine.entropy")


def test_outside_sim_packages_state_is_not_a_sink():
    flows = _sink_flows(
        "import os\n"
        "class Engine:\n"
        "    def seed(self):\n"
        "        self.entropy = os.urandom(8)\n",
        relpath="analysis/mod.py",
    )
    assert flows == []


def test_deterministic_rng_launders():
    flows = _sink_flows(
        "class Engine:\n"
        "    def seed(self, stats):\n"
        "        v = self.rng.randint(0, 4)\n"
        "        stats.add('sim/x', v)\n"
    )
    assert flows == []


def test_wrapper_calls_preserve_taint():
    flows = _sink_flows(
        "import time\n"
        "def f(stats):\n"
        "    stats.add('sim/x', int(time.time()))\n"
    )
    assert any(flow.src == ("source", "time.time()") for flow in flows)


def test_watchdog_use_without_sink_is_clean():
    flows = _sink_flows(
        "import time\n"
        "def f(stats, budget):\n"
        "    start = time.perf_counter()\n"
        "    while time.perf_counter() - start < budget:\n"
        "        stats.add('sim/x', 1)\n"
    )
    assert flows == []


def test_param_flows_are_indexed_for_callers():
    flows = _flows(
        "class Engine:\n"
        "    def record(self, stats, value):\n"
        "        stats.add('sim/x', value)\n"
    )
    # `self` excluded: stats is caller-arg 0, value is caller-arg 1.
    sinks = [flow for flow in flows if flow.dst[0] == "sink"]
    assert [flow.src for flow in sinks] == [("param", "1")]


def test_call_arg_flow_records_callee_ref():
    flows = _flows(
        "import time\n"
        "from sim.other import push\n"
        "def f():\n"
        "    push(time.time())\n"
    )
    assert any(
        flow.dst == ("call_arg", "0", "local", "push")
        and flow.src == ("source", "time.time()")
        for flow in flows
    )
