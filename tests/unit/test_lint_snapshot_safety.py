"""RL103 snapshot safety: the process-local shapes it flags (live sockets
and selectors — the failure mode the sweepd heartbeat plumbing makes
easy), the ``snapshot_detach`` hatch it no longer honours, and its scope
(what a checkpoint of ``System`` reaches)."""

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def _system(*held):
    """A ``sim/system.py`` whose System holds one instance of each class,
    given as ``(module, class)`` pairs."""
    imports = "".join(f"from {module} import {name}\n" for module, name in held)
    fields = "        self.count = 0\n" + "".join(
        f"        self.{name.lower()} = {name}()\n" for _, name in held
    )
    return f"{imports}class System:\n    def __init__(self):\n{fields}"


def _findings(tmp_path, files, *held):
    write_project(tmp_path, {"sim/system.py": _system(*held), **files})
    report, _ = lint_project(tmp_path)
    return findings_for(report, "RL103")


def test_socket_module_constructor_is_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/reporter.py": (
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.socket()\n"
        ),
    }, ("sim.reporter", "Reporter"))
    assert len(findings) == 1
    assert "live socket" in findings[0].message
    assert "Reporter.__init__" in findings[0].message


def test_create_connection_and_friends_are_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/links.py": (
            "import socket\n"
            "class Links:\n"
            "    def connect(self):\n"
            "        self.conn = socket.create_connection(('h', 1))\n"
            "    def pair(self):\n"
            "        self.left = socket.socketpair()\n"
            "    def adopt(self, fd):\n"
            "        self.raw = socket.fromfd(fd, 2, 1)\n"
        ),
    }, ("sim.links", "Links"))
    assert len(findings) == 3
    assert all("live socket" in finding.message for finding in findings)


def test_bare_socket_import_idiom_is_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/reporter.py": (
            "from socket import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket()\n"
        ),
    }, ("sim.reporter", "Reporter"))
    assert len(findings) == 1
    assert "live socket" in findings[0].message


def test_selector_objects_are_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/loop.py": (
            "import selectors\n"
            "class Loop:\n"
            "    def __init__(self):\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
        "sim/loop2.py": (
            "from selectors import EpollSelector\n"
            "class Loop2:\n"
            "    def __init__(self):\n"
            "        self.selector = EpollSelector()\n"
        ),
    }, ("sim.loop", "Loop"), ("sim.loop2", "Loop2"))
    assert len(findings) == 2
    assert all("I/O selector" in finding.message for finding in findings)


def test_snapshot_detach_does_not_exempt_the_class(tmp_path):
    # Checkpoints detach nothing, so a detach method hides nothing.
    findings = _findings(tmp_path, {
        "sim/reporter.py": (
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.socket()\n"
            "    def snapshot_detach(self):\n"
            "        self.sock = None\n"
            "    def snapshot_reattach(self):\n"
            "        pass\n"
        ),
    }, ("sim.reporter", "Reporter"))
    assert len(findings) == 1
    assert "live socket" in findings[0].message


def test_out_of_scope_packages_are_not_checked(tmp_path):
    # The service itself (sweepd) legitimately owns sockets and
    # selectors; no System attribute reaches it, so it is never part of
    # a pickled System graph.
    findings = _findings(tmp_path, {
        "sweepd/server.py": (
            "import selectors\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
    })
    assert findings == []


def test_plain_data_is_not_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/counters.py": (
            "class Counters:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "        self.names = ['a', 'b']\n"
        ),
    }, ("sim.counters", "Counters"))
    assert findings == []
