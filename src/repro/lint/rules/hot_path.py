"""RL005 — hot-path hygiene: keep the per-op path allocation-light.

The simulator's throughput lives and dies in a handful of per-operation
functions (``Core.execute``, ``CacheHierarchy.access``, ``MemoryDevice.access``,
...).  Those functions are annotated with a ``# repro-hot`` comment on the
line directly above their ``def`` (see docs/PERFORMANCE.md), and this rule
holds them to the discipline the PR-4 optimization pass established:

* **no per-call dataclass construction** — dataclasses pay ``__init__``
  keyword dispatch and a ``__dict__`` per instance; hot-path records are
  plain ``__slots__`` classes (``MemoryOp``, ``AccessResult``, ...) or
  tuples.  The rule knows every ``@dataclass`` defined in the project and
  flags constructing one inside a hot function;
* **no per-element Python loops over stream-chunk columns** (PR-9
  array-native streams) — an :class:`repro.workloads.chunks.OpChunk`
  carries its ops as parallel columns (``vaddrs``/``writes``/``instr``)
  so that one pass per chunk, ``engine._prep_chunk``, lifts them into the
  flat per-op columns the drain loop indexes; everything else reads those
  or indexes the chunk per escape.  A ``for`` over a chunk column
  (directly, zipped, enumerated, or via ``range(len(...))``) elsewhere in
  a hot function is a second per-op pass over the batch — the cost
  :func:`chunks_from_blocks` exists to amortize away.

The marker is an explicit opt-in, so the rule applies wherever it appears
(including ``common/`` and ``workloads/``, outside the RL001
simulation-package scope).  Static stats keys inside hot functions are
RL002's property; :func:`marked_hot` is the marker test it shares.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lint.engine import (
    ProjectContext,
    Rule,
    SourceFile,
    register_rule,
)

_HOT_MARKER = re.compile(r"^\s*#\s*repro-hot\b")

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: The parallel columns of :class:`repro.workloads.chunks.OpChunk`.  Any
#: attribute access with one of these names is treated as a chunk column —
#: the names are chunk-specific enough that the heuristic stays quiet on
#: unrelated code (scalar counters named ``writes`` are ints, not
#: iterables, and never appear as a ``for`` target).
_CHUNK_COLUMNS = ("vaddrs", "writes", "instr")


def is_dataclass(node: ast.ClassDef) -> bool:
    """True when ``@dataclass``, ``@dataclass(...)`` or
    ``@dataclasses.dataclass`` decorates the class."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def marked_hot(source: SourceFile, node: _FunctionDef) -> bool:
    """True when ``# repro-hot`` sits directly above the def/decorators."""
    start = node.lineno
    for decorator in node.decorator_list:
        start = min(start, decorator.lineno)
    above = start - 2  # 0-indexed line above the first def/decorator line
    return 0 <= above < len(source.lines) and bool(
        _HOT_MARKER.match(source.lines[above])
    )


@register_rule
class HotPathRule(Rule):
    """RL005: enforce allocation discipline in ``# repro-hot`` functions."""

    rule_id = "RL005"
    name = "hot-path"

    def __init__(self) -> None:
        #: Project-wide dataclass class names (name -> defining relpath).
        self.dataclasses: Dict[str, str] = {}
        #: Hot functions found, for the cross-file finalize pass.
        self.hot_functions: List[Tuple[SourceFile, _FunctionDef]] = []

    # -- collection --------------------------------------------------------
    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                self.dataclasses.setdefault(node.name, source.relpath)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if marked_hot(source, node):
                    self.hot_functions.append((source, node))

    # -- the cross-file pass (needs every dataclass name first) -----------
    def finalize(self, ctx: ProjectContext) -> None:
        for source, function in self.hot_functions:
            self._check_hot_function(source, function, ctx)

    def _check_hot_function(
        self, source: SourceFile, function: _FunctionDef, ctx: ProjectContext
    ) -> None:
        self._check_chunk_loops(source, function, ctx)
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.dataclasses
            ):
                name = node.func.id
                ctx.emit(
                    self, source, node,
                    f"dataclass {name} (defined in "
                    f"{self.dataclasses[name]}) constructed inside "
                    f"hot function {function.name}(): dataclass __init__ "
                    "dispatch is per-event overhead; use a __slots__ class "
                    "or a tuple on the hot path",
                )

    # -- the chunk-column loop check (PR-9 array-native streams) -----------
    def _check_chunk_loops(
        self, source: SourceFile, function: _FunctionDef, ctx: ProjectContext
    ) -> None:
        #: Local aliases of chunk columns (``vaddrs = chunk.vaddrs``) —
        #: function-scoped, so a plain-list ``vaddrs`` in one function does
        #: not poison a ``vaddrs`` in another.
        local_columns: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if (
                    value is not None
                    and isinstance(value, ast.Attribute)
                    and value.attr in _CHUNK_COLUMNS
                ):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            local_columns.add(target.id)

        for node in ast.walk(function):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            column = self._chunk_expr(node.iter, local_columns)
            if column is not None:
                ctx.emit(
                    self, source, node,
                    f"per-element Python loop over stream-chunk column "
                    f"'{column}' inside hot function {function.name}(): "
                    "engine._prep_chunk is the one per-chunk pass over the "
                    "columns; read its prepped columns or index single "
                    "escapes scalar-side instead of re-serializing the "
                    "batch",
                )

    def _chunk_expr(
        self, node: ast.AST, local_columns: Set[str]
    ) -> Optional[str]:
        """Describe *node* if it names a chunk column (else None).

        Recognizes the column attribute itself, a local alias of one,
        ``zip(...)`` over columns, ``enumerate``/``reversed``/``iter``
        wrappers, and ``range(len(column))``.
        """
        if isinstance(node, ast.Name) and node.id in local_columns:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in _CHUNK_COLUMNS:
            return f".{node.attr}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and node.args:
                if func.id == "zip":
                    for arg in node.args:
                        column = self._chunk_expr(arg, local_columns)
                        if column is not None:
                            return column
                    return None
                if func.id in ("enumerate", "reversed", "iter"):
                    return self._chunk_expr(node.args[0], local_columns)
                if func.id == "range":
                    inner = node.args[0]
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "len"
                        and inner.args
                    ):
                        return self._chunk_expr(inner.args[0], local_columns)
        return None
