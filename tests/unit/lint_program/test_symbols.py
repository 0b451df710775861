"""Symbol table: module naming, import resolution, base-class walking."""

from repro.lint.program.symbols import module_name_for

from tests.unit.lint_program.helpers import write_project


def test_module_name_for_layouts():
    assert module_name_for("src/repro/sim/system.py") == "repro.sim.system"
    assert module_name_for("sim/model.py") == "sim.model"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("top.py") == "top"


def _model(tmp_path, files):
    write_project(tmp_path, files)
    from repro.lint.engine import LintEngine

    engine = LintEngine(root=tmp_path)
    engine.run([tmp_path])
    return engine.last_program_model


def test_resolves_imported_function_and_class(tmp_path):
    model = _model(tmp_path, {
        "sim/parts.py": (
            "class Widget:\n"
            "    def spin(self):\n"
            "        return 1\n"
            "def helper():\n"
            "    return 2\n"
        ),
        "sim/model.py": (
            "from sim.parts import Widget, helper\n"
            "def run():\n"
            "    w = Widget()\n"
            "    return helper()\n"
        ),
    })
    table = model.table
    assert table.resolve_ref("sim.model", ("local", "helper")) == "sim.parts:helper"
    assert table.resolve_class("sim.model", ("local", "Widget")) == "sim.parts:Widget"
    # Dotted access through a module import.
    assert table.resolve_ref("sim.model", ("dotted", "Widget", "spin")) == (
        "sim.parts:Widget.spin"
    )


def test_method_resolution_walks_project_bases(tmp_path):
    model = _model(tmp_path, {
        "sim/base.py": (
            "class Base:\n"
            "    def step(self):\n"
            "        return 0\n"
        ),
        "sim/impl.py": (
            "from sim.base import Base\n"
            "class Impl(Base):\n"
            "    def extra(self):\n"
            "        return self.step()\n"
        ),
    })
    assert model.table.method_of("sim.impl:Impl", "step") == "sim.base:Base.step"
    assert model.table.method_of("sim.impl:Impl", "extra") == "sim.impl:Impl.extra"
    assert model.table.method_of("sim.impl:Impl", "missing") is None


def test_bare_annotation_name_resolves_when_unique(tmp_path):
    model = _model(tmp_path, {
        "sim/a.py": "class OnlyOnce:\n    pass\n",
        "sim/b.py": "class Other:\n    pass\n",
    })
    # No import anywhere, but the name is program-unique.
    assert model.table.resolve_class("sim.b", ("local", "OnlyOnce")) == "sim.a:OnlyOnce"


def test_class_table_targets(tmp_path):
    model = _model(tmp_path, {
        "sim/schemes.py": (
            "class A:\n    pass\n"
            "class B:\n    pass\n"
            "SCHEMES = {'a': A, 'b': B}\n"
        ),
    })
    assert sorted(model.table.class_table_targets("sim.schemes", "SCHEMES")) == [
        "sim.schemes:A", "sim.schemes:B",
    ]
