"""RL103: checkpoint reachability proof (positive and negative)."""

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def test_positive_reachable_class_with_lambda_attr(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Pipeline\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
        "sim/parts.py": (
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity.label == "error"
    assert finding.path == "sim/parts.py"
    assert "System.pipeline → Pipeline" in finding.message
    assert "lambda" in finding.message
    assert "sim.parts:Pipeline" in engine.last_program_model.reachable


def test_positive_reachability_through_class_table_and_container(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.schemes import SCHEMES\n"
            "class System:\n"
            "    def __init__(self, name):\n"
            "        self.hmc = SCHEMES[name]()\n"
        ),
        "sim/schemes.py": (
            "from sim.queue import Queue\n"
            "class BaseHmc:\n"
            "    def __init__(self):\n"
            "        self.queues = []\n"
            "        self.queues.append(Queue())\n"
            "class FastHmc(BaseHmc):\n"
            "    pass\n"
            "SCHEMES = {'fast': FastHmc}\n"
        ),
        "sim/queue.py": (
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    assert findings[0].path == "sim/queue.py"
    assert "threading.Lock" in findings[0].message
    model = engine.last_program_model
    assert "sim.schemes:FastHmc" in model.reachable
    assert "sim.queue:Queue" in model.reachable


def test_negative_getstate_terminates_traversal(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Pipeline\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
        "sim/parts.py": (
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []
    assert report.exit_code == 0


def test_no_root_class_means_silence(tmp_path):
    write_project(tmp_path, {
        "sim/parts.py": (
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []
    assert engine.last_program_model.root_symbols == []


def test_positive_reachable_class_with_live_socket_and_selector(tmp_path):
    # The sweepd heartbeat plumbing makes it tempting to hand a class in
    # the pickled System graph a socket or selector; the whole-program
    # proof must flag both with a reachability witness.
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.reporter import Reporter\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.reporter = Reporter()\n"
        ),
        "sim/reporter.py": (
            "import selectors\n"
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.create_connection(('h', 1))\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 2
    messages = " | ".join(finding.message for finding in findings)
    assert "live socket" in messages
    assert "I/O selector" in messages
    assert all("System.reporter → Reporter" in f.message for f in findings)
    assert "sim.reporter:Reporter" in engine.last_program_model.reachable


def test_snapshot_detach_exempts_neither_own_assignments_nor_held_objects(tmp_path):
    # Checkpoints detach nothing: the manager's own hooks are pickled,
    # and so are the entries it holds.
    write_project(tmp_path, {
        "sim/system.py": (
            "from check.manager import Manager\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.checker = Manager()\n"
        ),
        "check/manager.py": (
            "from typing import List\n"
            "class Entry:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0\n"
            "class Manager:\n"
            "    def __init__(self):\n"
            "        self.hook = lambda: None\n"
            "        self.entries: List[Entry] = []\n"
            "    def snapshot_detach(self):\n"
            "        self.hook = None\n"
            "    def snapshot_reattach(self):\n"
            "        self.hook = lambda: None\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert [(f.path, f.line) for f in findings] == [
        ("check/manager.py", 4), ("check/manager.py", 7), ("check/manager.py", 12),
    ]
    assert "System.checker → Manager.entries → Entry" in findings[0].message
    assert all("System.checker → Manager" in f.message for f in findings)


def test_base_typed_edge_reaches_every_subclass(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from typing import List\n"
            "from check.checkers import Checker, build\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.checkers: List[Checker] = build()\n"
        ),
        "check/checkers.py": (
            "class Checker:\n"
            "    pass\n"
            "class Clean(Checker):\n"
            "    pass\n"
            "class Sanity(Checker):\n"
            "    def __init__(self):\n"
            "        self.x = lambda: 0\n"
            "def build():\n"
            "    return [Clean(), Sanity()]\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    assert "Sanity.__init__ stores a lambda" in findings[0].message
    assert "System.checkers → Checker → subclass Sanity" in findings[0].message
    assert "check.checkers:Clean" in engine.last_program_model.reachable


def test_private_classes_in_populated_containers_are_reachable(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from mem.pods import Pods\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pods = Pods()\n"
        ),
        "mem/pods.py": (
            "class _Pod:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0\n"
            "class _Entry:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0\n"
            "class Pods:\n"
            "    def __init__(self):\n"
            "        self._pods = []\n"
            "        self._pods.append(_Pod())\n"
            "        self._entries = {}\n"
            "    def fill(self, key):\n"
            "        self._entries[key] = _Entry()\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    messages = sorted(f.message for f in findings_for(report, "RL103"))
    assert len(messages) == 2
    assert "System.pods → Pods._entries → _Entry" in messages[0]
    assert "System.pods → Pods._pods → _Pod" in messages[1]


def test_private_class_annotation_is_an_edge(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from typing import Dict\n"
            "from vm.table import _Node\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.nodes: Dict[int, _Node] = {}\n"
        ),
        "vm/table.py": (
            "import threading\n"
            "class _Node:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    assert "System.nodes → _Node" in findings[0].message


def test_encoding_owner_stops_the_subclass_closure(tmp_path):
    # A base that pickles itself through __getstate__ hands that encoding
    # to its subclasses too; the traversal does not open them up.
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Part\n"
            "class System:\n"
            "    def __init__(self, part: Part):\n"
            "        self.part = part\n"
        ),
        "sim/parts.py": (
            "class Part:\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
            "class Special(Part):\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []
    assert "sim.parts:Special" not in engine.last_program_model.reachable
