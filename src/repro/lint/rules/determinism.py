"""RL001 — determinism: no ambient randomness or wall clocks in the core.

Bit-identical replay is the foundation of the golden-digest harness and of
every figure in the paper; a single ``random.random()`` or ``time.time()``
inside the simulation core silently breaks it.  Inside the
simulation-critical packages (``sim``, ``mem``, ``core``, ``vm``,
``cache``, ``baselines``) this rule forbids:

* importing or calling the ``random`` module (use
  :class:`repro.common.rng.DeterministicRng`, seeded by name + global
  seed);
* wall-clock and entropy reads: ``time.time``/``perf_counter``/
  ``monotonic``/``time_ns``, ``datetime.now``/``utcnow``/``today``,
  ``os.urandom``/``getrandom``, ``uuid`` and ``secrets`` (the table the
  whole-program extractor classifies RL102's sources by);
* ``id()`` used as a dictionary key or subscript — ``id()`` values depend
  on the allocator and differ between runs;
* iterating an unordered ``set`` (or calling ``set.pop()``): Python sets
  iterate in hash order, which for strings varies with ``PYTHONHASHSEED``.
  Iterate ``sorted(the_set)`` or use a dict instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.lint.engine import (
    ProjectContext,
    Rule,
    Severity,
    SourceFile,
    register_rule,
)
from repro.lint.program.extract import reads_wall_clock_or_entropy


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that are syntactically a set right here."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split("[")[0] in ("set", "frozenset", "Set", "FrozenSet")
    return False


def _target_key(node: ast.AST) -> Optional[str]:
    """A file-local key for ``x`` or ``self.x`` assignment targets."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


@register_rule
class DeterminismRule(Rule):
    """RL001: forbid nondeterministic constructs in simulation code."""

    rule_id = "RL001"
    name = "determinism"
    default_severity = Severity.ERROR

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        if not source.in_sim_package:
            return
        #: Names bound by `from <module> import <name>` to forbidden calls.
        imported_from: Dict[str, str] = {}
        #: File-local names/self-attrs known to hold plain sets.
        known_sets: Set[str] = set()

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                if _is_set_expr(node.value):
                    for target in node.targets:
                        key = _target_key(target)
                        if key is not None:
                            known_sets.add(key)
            elif isinstance(node, ast.AnnAssign):
                key = _target_key(node.target)
                if key is not None and (
                    _annotation_is_set(node.annotation)
                    or (node.value is not None and _is_set_expr(node.value))
                ):
                    known_sets.add(key)

        for node in ast.walk(source.tree):
            self._check_imports(node, source, ctx, imported_from)
            self._check_calls(node, source, ctx, imported_from)
            self._check_id_keys(node, source, ctx)
            self._check_set_iteration(node, source, ctx, known_sets)

    # -- imports -----------------------------------------------------------
    def _check_imports(self, node, source, ctx, imported_from: Dict[str, str]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    ctx.emit(
                        self, source, node,
                        "import of the global `random` module in simulation "
                        "code; draw from repro.common.rng.DeterministicRng "
                        "instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                ctx.emit(
                    self, source, node,
                    "from-import of the global `random` module in simulation "
                    "code; draw from repro.common.rng.DeterministicRng instead",
                )
            elif node.module is not None:
                for alias in node.names:
                    if reads_wall_clock_or_entropy(node.module, alias.name):
                        imported_from[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    # -- forbidden calls ---------------------------------------------------
    def _check_calls(self, node, source, ctx, imported_from: Dict[str, str]) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported_from:
            ctx.emit(
                self, source, node,
                f"wall-clock/entropy call {imported_from[func.id]}() in "
                "simulation code; simulated time must come from the event "
                "timeline and randomness from DeterministicRng",
            )
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "random":
                ctx.emit(
                    self, source, node,
                    f"call to random.{func.attr}() in simulation code; use a "
                    "DeterministicRng stream (repro.common.rng) so runs are "
                    "bit-reproducible",
                )
            elif reads_wall_clock_or_entropy(base.id, func.attr):
                ctx.emit(
                    self, source, node,
                    f"wall-clock/entropy call {base.id}.{func.attr}() in "
                    "simulation code; simulated time must come from the "
                    "event timeline",
                )
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "datetime"
            and base.attr in ("datetime", "date")
            and reads_wall_clock_or_entropy("datetime", func.attr)
        ):
            ctx.emit(
                self, source, node,
                f"wall-clock call datetime.{base.attr}.{func.attr}() in "
                "simulation code",
            )

    # -- id()-keyed containers --------------------------------------------
    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def _check_id_keys(self, node, source, ctx) -> None:
        message = (
            "id() used as a container key: id() values depend on the "
            "allocator and differ between runs; key by a stable identifier "
            "(name, page number, index) instead"
        )
        if isinstance(node, ast.Subscript) and self._is_id_call(node.slice):
            ctx.emit(self, source, node, message)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and self._is_id_call(key):
                    ctx.emit(self, source, key, message)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("get", "setdefault", "pop") and node.args:
                if self._is_id_call(node.args[0]):
                    ctx.emit(self, source, node, message)

    # -- unordered set iteration ------------------------------------------
    def _iter_is_unordered_set(self, expr: ast.AST, known_sets: Set[str]) -> bool:
        if _is_set_expr(expr):
            return True
        key = _target_key(expr)
        return key is not None and key in known_sets

    def _check_set_iteration(self, node, source, ctx, known_sets: Set[str]) -> None:
        message = (
            "iteration over an unordered set: set order follows string "
            "hashing and varies between interpreter runs; iterate "
            "sorted(...) or use a dict (insertion-ordered) instead"
        )
        iters = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(comp.iter for comp in node.generators)
        for expr in iters:
            if self._iter_is_unordered_set(expr, known_sets):
                ctx.emit(self, source, expr, message)
        # set.pop() removes an arbitrary (hash-ordered) element.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and not node.keywords
        ):
            key = _target_key(node.func.value)
            if key is not None and key in known_sets:
                ctx.emit(
                    self, source, node,
                    "set.pop() removes a hash-ordered (run-dependent) "
                    "element; pick the element deterministically instead",
                )
