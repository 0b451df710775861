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
* **no dynamically-built stats keys** — an f-string / concatenated /
  ``.format``-ed key passed to a stats record method costs a string build
  per event and defeats RL002's static key auditing.  Hot functions use
  string literals, literal-key tables, or handles pre-resolved via
  ``stats.counter(...)`` / ``stats.observer(...)`` at construction time;
* **no per-element Python loops over numpy arrays** (PR-6 batch kernels) —
  a ``for`` over a numpy array (directly, via ``range(len(...))``,
  ``enumerate(...)``, or ``.tolist()``) pays interpreter dispatch plus a
  boxed-int allocation per element, exactly the cost the struct-of-arrays
  representation exists to avoid.  Batch kernels stay in C via vectorized
  array ops (see ``SoaBankedTimeline.reserve_sequence``); genuinely
  element-wise logic belongs in the scalar fallback at batch boundaries.
  The rule tracks names assigned from numpy constructor calls inside the
  hot function and attributes assigned from numpy calls anywhere in the
  project (``self.busy_until = np.zeros(...)`` marks ``.busy_until``);
* **no per-element Python loops over stream-chunk columns** (PR-9
  array-native streams) — an :class:`repro.workloads.chunks.OpChunk`
  carries its ops as parallel columns (``vaddrs``/``writes``/``instr``)
  precisely so hot consumers can hand the whole column to a vectorized
  prep kernel (``engine._prep_chunk``) or index it per escape.  A ``for``
  over a chunk column (directly, zipped, enumerated, or via
  ``range(len(...))``) re-serializes the batch into per-op interpreter
  dispatch — the cost :func:`chunks_from_blocks` exists to amortize away.

The marker is an explicit opt-in, so the rule applies wherever it appears
(including ``common/`` and ``workloads/``, outside the RL001/RL002
simulation-package scope).
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

#: Stats record methods whose key argument must be static (mirrors RL002).
_RECORD_METHODS = ("add", "observe", "counter", "observer")
_STATS_NAMES = ("stats",)

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: The parallel columns of :class:`repro.workloads.chunks.OpChunk`.  Any
#: attribute access with one of these names is treated as a chunk column —
#: the names are chunk-specific enough that the heuristic stays quiet on
#: unrelated code (scalar counters named ``writes`` are ints, not
#: iterables, and never appear as a ``for`` target).
_CHUNK_COLUMNS = ("vaddrs", "writes", "instr")


def _is_stats_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _STATS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _STATS_NAMES
    return False


def _is_dataclass_decorator(node: ast.AST) -> bool:
    """True for ``@dataclass``, ``@dataclass(...)``, ``@dataclasses.dataclass``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id == "dataclass"
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return False


def _is_dynamic_string(node: ast.AST) -> bool:
    """True for expressions that build a string at the call site."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        # "a" + suffix or "a/%s" % kind — either side being a string
        # literal marks this as string assembly.
        for side in (node.left, node.right):
            if isinstance(side, ast.Constant) and isinstance(side.value, str):
                return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("format", "join")
    ):
        return True
    return False


def _numpy_aliases(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Return (module aliases, directly-imported constructor names).

    ``import numpy as np`` yields ``{"np"}``; ``from numpy import zeros``
    yields ``{"zeros"}`` in the second set.  Guarded imports (inside
    ``try:``) are found too — ``ast.walk`` sees through the Try block.
    """
    modules: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "numpy":
                for alias in node.names:
                    names.add(alias.asname or alias.name)
    return modules, names


def _call_root(node: ast.AST) -> Optional[ast.Name]:
    """The base Name of a (possibly dotted) call target, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _is_numpy_call(
    node: ast.AST, modules: Set[str], names: Set[str]
) -> bool:
    """True for ``np.zeros(...)``-shaped calls (any dotted numpy call)."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in names
    root = _call_root(node.func)
    return root is not None and root.id in modules


def _marked_hot(source: SourceFile, node: _FunctionDef) -> bool:
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
    """RL005: enforce allocation/key discipline in ``# repro-hot`` functions."""

    rule_id = "RL005"
    name = "hot-path"

    def __init__(self) -> None:
        #: Project-wide dataclass class names (name -> defining relpath).
        self.dataclasses: Dict[str, str] = {}
        #: Hot functions found, for the cross-file finalize pass.
        self.hot_functions: List[Tuple[SourceFile, _FunctionDef]] = []
        #: Per-file numpy import shapes (relpath -> (modules, names)).
        self.file_numpy: Dict[str, Tuple[Set[str], Set[str]]] = {}
        #: Attribute names assigned from a numpy call anywhere in the
        #: project (``self.busy_until = np.zeros(...)`` -> "busy_until"),
        #: so a hot function in another file looping over ``x.busy_until``
        #: still flags.
        self.numpy_attrs: Dict[str, str] = {}

    # -- collection --------------------------------------------------------
    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        modules, names = _numpy_aliases(source.tree)
        self.file_numpy[source.relpath] = (modules, names)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(dec) for dec in node.decorator_list
            ):
                self.dataclasses.setdefault(node.name, source.relpath)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _marked_hot(source, node):
                    self.hot_functions.append((source, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                modules or names
            ):
                value = node.value
                if value is None or not _is_numpy_call(value, modules, names):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        self.numpy_attrs.setdefault(
                            target.attr, source.relpath
                        )

    # -- the cross-file pass (needs every dataclass name first) -----------
    def finalize(self, ctx: ProjectContext) -> None:
        for source, function in self.hot_functions:
            self._check_hot_function(source, function, ctx)

    def _check_hot_function(
        self, source: SourceFile, function: _FunctionDef, ctx: ProjectContext
    ) -> None:
        self._check_numpy_loops(source, function, ctx)
        self._check_chunk_loops(source, function, ctx)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in self.dataclasses:
                ctx.emit(
                    self, source, node,
                    f"dataclass {func.id} (defined in "
                    f"{self.dataclasses[func.id]}) constructed inside "
                    f"hot function {function.name}(): dataclass __init__ "
                    "dispatch is per-event overhead; use a __slots__ class "
                    "or a tuple on the hot path",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _RECORD_METHODS
                and _is_stats_receiver(func.value)
                and node.args
                and _is_dynamic_string(node.args[0])
            ):
                ctx.emit(
                    self, source, node,
                    f"dynamically-built stats key inside hot function "
                    f"{function.name}(): the string is assembled per event; "
                    "use a literal, a literal-key table, or a handle "
                    "pre-resolved via stats.counter()/observer()",
                )

    # -- the numpy-loop check (PR-6 batch kernels) -------------------------
    def _check_numpy_loops(
        self, source: SourceFile, function: _FunctionDef, ctx: ProjectContext
    ) -> None:
        modules, names = self.file_numpy.get(source.relpath, (set(), set()))
        #: Names bound to a numpy call *inside this function* — function
        #: scope keeps a plain-list ``indices`` in one method from
        #: poisoning an ``indices`` in another.
        local_arrays: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not _is_numpy_call(value, modules, names):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        local_arrays.add(target.id)

        for node in ast.walk(function):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            array = self._array_expr(node.iter, local_arrays)
            if array is not None:
                ctx.emit(
                    self, source, node,
                    f"per-element Python loop over numpy array '{array}' "
                    f"inside hot function {function.name}(): interpreter "
                    "dispatch plus int boxing per element defeats the "
                    "struct-of-arrays layout; use a vectorized kernel "
                    "(argsort/bincount/maximum.at, see "
                    "SoaBankedTimeline.reserve_sequence) or move the "
                    "element-wise logic to the scalar fallback",
                )

    # -- the chunk-column loop check (PR-9 array-native streams) -----------
    def _check_chunk_loops(
        self, source: SourceFile, function: _FunctionDef, ctx: ProjectContext
    ) -> None:
        #: Local aliases of chunk columns (``vaddrs = chunk.vaddrs``) —
        #: function-scoped, same reasoning as ``local_arrays`` above.
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
                    "the chunk's parallel columns exist so hot consumers "
                    "stay batched; hand the column to the vectorized prep "
                    "kernel (engine._prep_chunk) or index single escapes "
                    "scalar-side instead of re-serializing the batch",
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

    def _array_expr(
        self, node: ast.AST, local_arrays: Set[str]
    ) -> Optional[str]:
        """Describe *node* if it names a numpy array (else None).

        Recognizes the array itself, ``range(len(arr))``,
        ``enumerate(arr)``, and ``arr.tolist()`` — the four shapes a
        per-element loop over an array takes in practice.
        """
        if isinstance(node, ast.Name) and node.id in local_arrays:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in self.numpy_attrs:
            return f".{node.attr}"
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("range", "enumerate", "reversed", "iter")
                and node.args
            ):
                inner = node.args[0]
                if func.id == "range":
                    # range(len(arr)) / range(arr.shape[0])
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "len"
                        and inner.args
                    ):
                        return self._array_expr(inner.args[0], local_arrays)
                    return None
                return self._array_expr(inner, local_arrays)
            if isinstance(func, ast.Attribute) and func.attr in (
                "tolist", "flatten", "ravel"
            ):
                return self._array_expr(func.value, local_arrays)
        return None
