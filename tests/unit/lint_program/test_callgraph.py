"""Call graph: cross-module edge resolution, closure, DOT rendering."""

from repro.lint.engine import LintEngine

from tests.unit.lint_program.helpers import write_project

PROJECT = {
    "sim/parts.py": (
        "def leaf():\n"
        "    return 1\n"
        "def middle():\n"
        "    return leaf()\n"
    ),
    "sim/model.py": (
        "from sim.parts import middle\n"
        "class Engine:\n"
        "    def tick(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return middle()\n"
    ),
}


def _graph(tmp_path):
    write_project(tmp_path, PROJECT)
    engine = LintEngine(root=tmp_path)
    engine.run([tmp_path])
    return engine.last_program_model.graph


def test_cross_module_and_self_edges_resolve(tmp_path):
    graph = _graph(tmp_path)
    pairs = {(edge.caller, edge.callee) for edge in graph.edges}
    assert ("sim.model:Engine.tick", "sim.model:Engine.helper") in pairs
    assert ("sim.model:Engine.helper", "sim.parts:middle") in pairs
    assert ("sim.parts:middle", "sim.parts:leaf") in pairs


def test_reachability_closure(tmp_path):
    graph = _graph(tmp_path)
    reachable = graph.reachable_from(["sim.model:Engine.tick"])
    assert "sim.parts:leaf" in reachable
    assert graph.reachable_from(["sim.parts:leaf"]) == {"sim.parts:leaf"}


def test_dot_dump_contains_clusters_and_edges(tmp_path):
    dot = _graph(tmp_path).to_dot()
    assert dot.startswith("digraph callgraph {")
    assert 'label="sim.parts";' in dot
    assert '"sim.parts:middle" -> "sim.parts:leaf";' in dot
