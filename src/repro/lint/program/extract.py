"""Per-file fact extraction: one parsed source file → :class:`ModuleFacts`.

This is the only program-analysis phase that looks at ASTs; everything
downstream (symbol resolution, call-graph propagation, the RL1xx rules)
consumes the serializable facts it produces, which is what makes the
content-hash cache sound: same bytes, same facts.

The extractor knows the file's *local* context — its imports, its
package location, which receivers look like stats registries or
DeterministicRng streams — and encodes policy for the taint walker
through a :class:`~repro.lint.program.dataflow.TaintEnv`.  It also owns
the two classifiers that decide what a snapshot-unsafe ``self``
assignment is (:func:`classify_unsafe_value`, for RL103) and what a raw
persistent write is (:func:`classify_raw_write`, for RL105).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.engine import SIM_PACKAGES
from repro.lint.program.dataflow import (
    FunctionNode,
    LocalStringBindings,
    TaintEnv,
    analyze_function_taint,
)
from repro.lint.program.facts import (
    AttrEdge,
    ClassFacts,
    FunctionFacts,
    KeySite,
    ModuleFacts,
    RawWrite,
    Ref,
    SinkSite,
    UnsafeAssign,
)
from repro.lint.program.symbols import module_name_for

#: Stats record/read method names on a ``stats`` receiver.  Every record
#: site feeds RL101 (key liveness) and RL002 (static keys).
_RECORD_METHODS = frozenset({"add", "observe"})
_READ_METHODS = frozenset({"get", "mean", "total", "count", "maximum"})

#: StatsRegistry's backing dicts.  Flattened hot paths record into them
#: directly (``counters = stats._counters`` then
#: ``counters["hmc/x"] += 1.0``); those writes are record sites too.
_REGISTRY_DICTS = frozenset({"_counters", "_sums", "_counts", "_maxima"})

#: Wall-clock/entropy attributes per source module (RL001 and RL102).
_SOURCE_ATTRS: Dict[str, "frozenset[str]"] = {
    "time": frozenset(
        {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    ),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": frozenset(
        {"token_bytes", "token_hex", "token_urlsafe", "randbits", "randbelow", "choice"}
    ),
}
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def reads_wall_clock_or_entropy(module: str, attr: str) -> bool:
    """True when ``<module>.<attr>()`` reads a wall clock or entropy.

    *module* is ``time``, ``os``, ``uuid``, ``secrets`` or ``datetime``
    (for ``datetime``, *attr* is the method of its ``datetime``/``date``
    class).
    """
    if module == "datetime":
        return attr in _DATETIME_ATTRS
    return attr in _SOURCE_ATTRS.get(module, frozenset())


# -- snapshot safety (RL103) ------------------------------------------------

#: Defining any of these makes a class own its pickled encoding: RL103
#: trusts it and does not traverse into what it holds.
_OWN_ENCODING_METHODS = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})

_THREADING_PRIMITIVES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier"}
)

#: ``socket.<ctor>`` calls that hand back a live kernel socket.
_SOCKET_CONSTRUCTORS = frozenset(
    {"socket", "create_connection", "socketpair", "fromfd"}
)

#: ``selectors.<cls>()`` — selector objects wrap epoll/kqueue fds.
_SELECTOR_CLASSES = frozenset(
    {"DefaultSelector", "SelectSelector", "PollSelector", "EpollSelector",
     "DevpollSelector", "KqueueSelector"}
)


def _rooted_at_self(node: ast.AST) -> bool:
    """True for ``self.x`` and deeper chains like ``self.hmc.handle``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _nested_function_names(func: FunctionNode, nodes: Sequence[ast.AST]) -> Set[str]:
    """Names of the functions defined inside *func* (whose *nodes* these are)."""
    return {
        child.name
        for child in nodes
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child is not func
    }


def _returns_nested_function(nodes: Sequence[ast.AST], inner: Set[str]) -> bool:
    """True when a function (*nodes*, nested names *inner*) returns a
    lambda or one of its nested functions."""
    for child in nodes:
        if not isinstance(child, ast.Return) or child.value is None:
            continue
        value = child.value
        if isinstance(value, ast.Lambda):
            return True
        if isinstance(value, ast.Name) and value.id in inner:
            return True
    return False


def classify_unsafe_value(
    value: ast.AST, local_functions: Set[str], factories: Set[str]
) -> Optional[str]:
    """Describe *value* when storing it on ``self`` breaks a checkpoint.

    Process-local objects do not survive pickling: a lambda or closure,
    the result of a closure factory (a method of the same class returning
    a nested function), an open file, a threading primitive, a live
    socket or an I/O selector.  Returns None for anything else.
    """
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in local_functions:
        return f"the local closure {value.id!r}"
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "an open file handle"
        if func.id == "socket":
            return "a live socket"  # the ``from socket import socket`` idiom
        if func.id in _SELECTOR_CLASSES:
            return f"a live I/O selector ({func.id})"
        if func.id in local_functions:
            return f"the result of local closure {func.id!r}"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base, attr = func.value.id, func.attr
        if base == "threading" and attr in _THREADING_PRIMITIVES:
            return f"a threading.{attr}"
        if base == "socket" and attr in _SOCKET_CONSTRUCTORS:
            return f"a live socket (socket.{attr})"
        if base == "selectors" and attr in _SELECTOR_CLASSES:
            return f"a live I/O selector (selectors.{attr})"
        if base == "self" and attr in factories:
            return f"a closure built by factory method {attr!r}"
    return None


# -- persist discipline (RL105) ---------------------------------------------

#: ``open`` modes that create or mutate the target file.
_WRITE_MODE_CHARS = frozenset("wax+")


def _literal_mode(candidate: Optional[ast.expr]) -> Optional[str]:
    if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
        return candidate.value
    return None


def _keyword_mode(node: ast.Call) -> Optional[ast.expr]:
    return next((kw.value for kw in node.keywords if kw.arg == "mode"), None)


def classify_raw_write(node: ast.Call) -> Optional[str]:
    """Describe *node* when it is a raw persistent-write call, else None.

    The shapes: ``open(..., mode)`` and ``<path>.open(mode)`` with a
    literal mode containing ``w``, ``a``, ``x`` or ``+``;
    ``json.dump``/``pickle.dump``; ``<path>.write_text``/``write_bytes``.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _literal_mode(node.args[1] if len(node.args) >= 2 else _keyword_mode(node))
        if mode is not None and _WRITE_MODE_CHARS.intersection(mode):
            return f'open(..., "{mode}")'
        return None
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id in ("json", "pickle") \
                and func.attr == "dump":
            return f"{base.id}.dump(...)"
        if func.attr in ("write_text", "write_bytes"):
            return f".{func.attr}(...)"
        if func.attr == "open":
            mode = _literal_mode(node.args[0] if node.args else _keyword_mode(node))
            if mode is not None and _WRITE_MODE_CHARS.intersection(mode):
                return f'.open("{mode}")'
    return None


def _raw_writes_in(nodes: Sequence[ast.AST]) -> List[RawWrite]:
    """Every raw persistent-write call site among *nodes*."""
    out: List[RawWrite] = []
    for child in nodes:
        if isinstance(child, ast.Call):
            write = classify_raw_write(child)
            if write is not None:
                out.append(RawWrite(write, child.lineno, child.col_offset))
    return out


def _is_class_name(name: str) -> bool:
    """Class-shaped identifier: capitalized, private ones (``_Pod``) too."""
    return name.lstrip("_")[:1].isupper()


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` → ["a", "b", "c"]; None when the root is not a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _is_stats_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "stats"
    if isinstance(node, ast.Attribute):
        return node.attr == "stats"
    return False


def _is_registry_dict(node: ast.AST, local_names: Set[str]) -> bool:
    """``stats._counters``-style access, or a local bound to one."""
    if isinstance(node, ast.Name):
        return node.id in local_names
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _REGISTRY_DICTS
        and _is_stats_receiver(node.value)
    )


def _annotation_class_leaves(node: Optional[ast.AST]) -> List[str]:
    """Capitalized Name/dotted leaves inside an annotation expression.

    ``Optional[List[Core]]`` → ["Core"]; ``Dict[str, WalkResult]`` →
    ["WalkResult"].  Lowercase names (``int``, ``str``) are dropped.
    """
    if node is None:
        return []
    out: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if _is_class_name(child.id) and child.id not in (
                "List", "Dict", "Set", "Tuple", "Optional", "Union",
                "Sequence", "Mapping", "Iterable", "Callable", "Type",
                "FrozenSet", "Deque", "DefaultDict", "Any", "None",
            ):
                out.append(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            # String annotation: recurse into its parsed form.
            try:
                inner = ast.parse(child.value, mode="eval").body
            except SyntaxError:
                continue
            out.extend(_annotation_class_leaves(inner))
    return out


class _Extractor:
    """Stateful single-file extraction (one instance per file)."""

    def __init__(self, relpath: str, tree: ast.Module):
        self.relpath = relpath
        self.tree = tree
        #: Every node of the file, walked once for the module-wide passes.
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        #: id(function node) -> its walked nodes (see :meth:`_walk`).
        self._walks: Dict[int, List[ast.AST]] = {}
        self.module = module_name_for(relpath)
        parts = tuple(part for part in relpath.split("/") if part)
        self.in_sim_package = any(part in SIM_PACKAGES for part in parts)
        self.facts = ModuleFacts(
            relpath=relpath, module=self.module, in_sim_package=self.in_sim_package
        )
        #: Local names known to be DeterministicRng-ish (laundering).
        self.rng_names: Set[str] = set()
        #: self attrs assigned a DeterministicRng in this file.
        self.rng_attrs: Set[str] = set()
        #: names bound by `from random import name`.
        self.random_imports: Set[str] = set()
        #: alias -> source module for wall-clock imports (time as t).
        self.module_aliases: Dict[str, str] = {}
        #: names bound by `from time import perf_counter` etc.
        self.source_name_imports: Dict[str, str] = {}

    def _walk(self, func: FunctionNode) -> List[ast.AST]:
        """``ast.walk(func)`` as a list, computed once per function."""
        nodes = self._walks.get(id(func))
        if nodes is None:
            nodes = self._walks[id(func)] = list(ast.walk(func))
        return nodes

    # -- entry point -------------------------------------------------------
    def run(self) -> ModuleFacts:
        self.facts.raw_writes = _raw_writes_in(self.nodes)
        self._collect_imports()
        self._collect_module_level()
        self._collect_rng_bindings()
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node, class_name=None)
        self._collect_stats_sites()
        return self.facts

    # -- imports -----------------------------------------------------------
    def _collect_imports(self) -> None:
        package_parts = self.module.split(".")[:-1] if self.module else []
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.facts.imports[local] = target
                    root = alias.name.split(".")[0]
                    if root in ("time", "os", "datetime", "uuid", "secrets", "random"):
                        self.module_aliases[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                    prefix = ".".join(base_parts + ([node.module] if node.module else []))
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.facts.imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
                    if prefix == "random":
                        self.random_imports.add(local)
                    elif prefix in _SOURCE_ATTRS and alias.name in _SOURCE_ATTRS[prefix]:
                        self.source_name_imports[local] = f"{prefix}.{alias.name}"
                    elif prefix == "datetime" and alias.name in ("datetime", "date"):
                        self.module_aliases[local] = f"datetime.{alias.name}"

    # -- module level ------------------------------------------------------
    def _collect_module_level(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                self.facts.constants[target.id] = value.value
                continue
            elements: Sequence[ast.expr]
            if isinstance(value, ast.Dict):
                elements = [v for v in value.values if v is not None]
            elif isinstance(value, (ast.Tuple, ast.List)):
                elements = value.elts
            else:
                continue
            if elements and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elements
            ):
                self.facts.key_tables[target.id] = [
                    e.value for e in elements
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
            elif (
                isinstance(value, ast.Dict)
                and elements
                and all(isinstance(e, ast.Name) for e in elements)
            ):
                self.facts.class_tables[target.id] = [
                    e.id for e in elements if isinstance(e, ast.Name)
                ]

    # -- DeterministicRng laundering bindings ------------------------------
    def _looks_like_rng_call(self, node: ast.Call) -> bool:
        chain = _attr_chain(node.func)
        if chain is None:
            return False
        leaf = chain[-1]
        if leaf == "DeterministicRng" or leaf == "derive":
            return True
        imported = self.facts.imports.get(chain[0], "")
        return leaf == "DeterministicRng" or imported.endswith("DeterministicRng")

    def _collect_rng_bindings(self) -> None:
        for node in self.nodes:
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            if not self._looks_like_rng_call(node.value):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.rng_names.add(target.id)
                elif isinstance(target, ast.Attribute) and _rooted_at_self(target):
                    self.rng_attrs.add(target.attr)

    # -- references --------------------------------------------------------
    def _callee_ref(self, node: ast.Call) -> Optional[Ref]:
        chain = _attr_chain(node.func)
        if chain is None:
            return None
        if len(chain) == 1:
            return ("local", chain[0])
        if chain[0] == "self":
            if len(chain) == 2:
                return ("self", chain[1])
            return ("self_attr", *chain[1:])
        return ("dotted", *chain)

    # -- classes -----------------------------------------------------------
    def _collect_class(self, cls: ast.ClassDef) -> None:
        methods = [
            child for child in cls.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        class_facts = ClassFacts(
            name=cls.name,
            line=cls.lineno,
            bases=[ref for ref in (self._base_ref(base) for base in cls.bases) if ref],
            methods=[method.name for method in methods],
            exempt=any(method.name in _OWN_ENCODING_METHODS for method in methods),
        )
        self._collect_attr_edges(cls, methods, class_facts)
        self._collect_unsafe(cls, methods, class_facts)
        self.facts.classes[cls.name] = class_facts
        for method in methods:
            self._collect_function(method, class_name=cls.name)

    @staticmethod
    def _base_ref(base: ast.expr) -> Optional[Ref]:
        chain = _attr_chain(base)
        if chain is None:
            return None
        if len(chain) == 1:
            return ("local", chain[0])
        return ("dotted", *chain)

    def _constructor_ref(self, value: ast.expr) -> Optional[Ref]:
        """A Ref when *value* may construct a project class instance."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        # SCHEMES[scheme](...) — a class-table dispatch.  The table may be
        # local or imported; the model resolves either way.
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            name = func.value.id
            if name in self.facts.class_tables or name.isupper():
                return ("table", name)
        chain = _attr_chain(func)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2:
            return ("self", chain[1])  # factory method — resolved via returns_new
        if _is_class_name(chain[-1]):
            if len(chain) == 1:
                return ("local", chain[0])
            return ("dotted", *chain)
        return None

    def _collect_attr_edges(
        self,
        cls: ast.ClassDef,
        methods: Sequence[FunctionNode],
        class_facts: ClassFacts,
    ) -> None:
        # Class-level annotated fields (dataclasses included).
        for child in cls.body:
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                for leaf in _annotation_class_leaves(child.annotation):
                    class_facts.attr_edges.append(
                        AttrEdge(attr=child.target.id, target=("local", leaf), line=child.lineno)
                    )
        for method in methods:
            params = {
                arg.arg: _annotation_class_leaves(arg.annotation)
                for arg in list(method.args.posonlyargs) + list(method.args.args)
            }
            for node in self._walk(method):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        for leaf in _annotation_class_leaves(node.annotation):
                            class_facts.attr_edges.append(
                                AttrEdge(attr=target.attr, target=("local", leaf), line=node.lineno)
                            )
                        if node.value is not None:
                            self._value_edges(target.attr, node.value, params, class_facts, node)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        # self.<attr>[key] = Ctor(...) — mapping population.
                        if isinstance(target, ast.Subscript):
                            target = target.value
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self._value_edges(target.attr, node.value, params, class_facts, node)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    # self.<attr>.append(Ctor(...)) — container population.
                    func = node.func
                    if (
                        func.attr in ("append", "add", "appendleft", "insert")
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"
                        and node.args
                    ):
                        ref = self._constructor_ref(node.args[-1])
                        if ref is not None:
                            class_facts.attr_edges.append(
                                AttrEdge(attr=func.value.attr, target=ref, line=node.lineno)
                            )

    def _value_edges(
        self,
        attr: str,
        value: ast.expr,
        params: Dict[str, List[str]],
        class_facts: ClassFacts,
        node: ast.stmt,
    ) -> None:
        candidates: List[ast.expr] = [value]
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            candidates = list(value.elts)
        elif isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            candidates = [value.elt]
        elif isinstance(value, ast.Dict):
            candidates = [v for v in value.values if v is not None]
        elif isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for candidate in candidates:
            ref = self._constructor_ref(candidate)
            if ref is not None:
                class_facts.attr_edges.append(AttrEdge(attr=attr, target=ref, line=node.lineno))
            elif isinstance(candidate, ast.Name) and candidate.id in params:
                for leaf in params[candidate.id]:
                    class_facts.attr_edges.append(
                        AttrEdge(attr=attr, target=("local", leaf), line=node.lineno)
                    )

    def _collect_unsafe(
        self,
        cls: ast.ClassDef,
        methods: Sequence[FunctionNode],
        class_facts: ClassFacts,
    ) -> None:
        if class_facts.exempt:
            return
        inner = {
            id(method): _nested_function_names(method, self._walk(method))
            for method in methods
        }
        factories = {
            method.name for method in methods
            if _returns_nested_function(self._walk(method), inner[id(method)])
        }
        for method in methods:
            local_functions = inner[id(method)]
            for node in self._walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is None or not any(
                    _rooted_at_self(target) for target in targets
                ):
                    continue
                problem = classify_unsafe_value(node.value, local_functions, factories)
                if problem is not None:
                    class_facts.unsafe.append(
                        UnsafeAssign(
                            method=method.name,
                            problem=problem,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )

    # -- functions ---------------------------------------------------------
    def _source_of(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return "id()"
            if func.id in self.random_imports:
                return f"random.{func.id}"
            if func.id in self.source_name_imports:
                return f"{self.source_name_imports[func.id]}()"
            return None
        chain = _attr_chain(func)
        if chain is None or len(chain) < 2:
            return None
        root_target = self.module_aliases.get(chain[0])
        if root_target is None:
            return None
        root = root_target.split(".")[0]
        attr = chain[-1]
        if root == "random":
            return f"random.{attr}()"
        if not reads_wall_clock_or_entropy(root, attr):
            return None
        if root == "datetime":
            return f"{'.'.join(chain)}()"
        return f"{root}.{attr}()"

    def _launders(self, node: ast.Call) -> bool:
        chain = _attr_chain(node.func)
        if chain is None or len(chain) < 2:
            return (
                isinstance(node.func, ast.Name)
                and node.func.id == "DeterministicRng"
            )
        # The receiver one hop above the method: self._rng.randint ->
        # "_rng"; rng.random -> "rng".
        receiver = chain[-2]
        if "rng" in receiver.lower():
            return True
        if receiver in self.rng_names:
            return True
        if chain[0] == "self" and len(chain) >= 3 and chain[1] in self.rng_attrs:
            return True
        return chain[-1] == "DeterministicRng"

    def _sink_for_call(self, node: ast.Call) -> Optional[SinkSite]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _RECORD_METHODS or not _is_stats_receiver(func.value):
            return None
        detail = f"stats.{func.attr}(...)"
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                detail = f'stats key "{value}"'
        return SinkSite(kind="stats", detail=detail, line=node.lineno, col=node.col_offset)

    def _make_sink_for_attr(
        self, class_name: Optional[str]
    ) -> Callable[[ast.Attribute], Optional[SinkSite]]:
        def sink_for_attr(node: ast.Attribute) -> Optional[SinkSite]:
            if class_name is None or not self.in_sim_package:
                return None
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                return None
            return SinkSite(
                kind="state",
                detail=f"{class_name}.{node.attr}",
                line=node.lineno,
                col=node.col_offset,
            )

        return sink_for_attr

    def _collect_function(self, func: FunctionNode, class_name: Optional[str]) -> None:
        qualname = f"{class_name}.{func.name}" if class_name else func.name
        env = TaintEnv(
            source_of=self._source_of,
            launders=self._launders,
            callee_ref=self._callee_ref,
            sink_for_call=self._sink_for_call,
            sink_for_attr=self._make_sink_for_attr(class_name),
        )
        flows = analyze_function_taint(func, env, is_method=class_name is not None)
        calls: List[Tuple[Ref, int, int]] = []
        returns_new: List[Ref] = []
        for node in self._walk(func):
            if isinstance(node, ast.Call):
                ref = self._callee_ref(node)
                if ref is not None:
                    calls.append((ref, node.lineno, node.col_offset))
            elif isinstance(node, ast.Return) and node.value is not None:
                ctor = self._constructor_ref(node.value)
                if ctor is not None:
                    returns_new.append(ctor)
        self.facts.functions[qualname] = FunctionFacts(
            qualname=qualname,
            line=func.lineno,
            calls=calls,
            flows=flows,
            returns_new=returns_new,
            return_annotation=_annotation_class_leaves(func.returns),
            raw_writes=[
                write for write in self.facts.raw_writes
                if func.lineno <= write.line <= (func.end_lineno or func.lineno)
            ],
        )

    # -- stats sites -------------------------------------------------------
    def _collect_stats_sites(self) -> None:
        for statements in self._binding_scopes():
            bindings = LocalStringBindings(self.facts.constants)
            #: Local names bound to a registry dict (``counters = stats._counters``).
            registry_dicts: Set[str] = set()
            for node in statements:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        bindings.assign(target, node.value)
                        if isinstance(target, ast.Name):
                            if _is_registry_dict(node.value, registry_dicts):
                                registry_dicts.add(target.id)
                            else:
                                registry_dicts.discard(target.id)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    bindings.assign(node.target, node.value)
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        self._classify_registry_write(target, registry_dicts, bindings)
                for call in _calls_of(node):
                    self._classify_stats_call(call, bindings)

    def _classify_registry_write(
        self, target: ast.expr, registry_dicts: Set[str], bindings: LocalStringBindings
    ) -> None:
        """Record ``<registry dict>[key] (+)= value`` as a stats record site.

        The key shapes are those of a ``stats.add(key)`` call
        (:meth:`_record_site`), literal-key tables included.
        """
        if not isinstance(target, ast.Subscript):
            return
        if not _is_registry_dict(target.value, registry_dicts):
            return
        self._record_site(target, target.slice, bindings)

    def _binding_scopes(self) -> List[List[ast.stmt]]:
        """The statements of each outermost function (its nested functions
        included), then those outside every function, in source order."""
        functions: List[FunctionNode] = []
        outside: List[ast.stmt] = []
        pending: List[ast.AST] = [self.tree]
        while pending:
            for child in ast.iter_child_nodes(pending.pop()):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(child)
                    continue
                if isinstance(child, ast.stmt):
                    outside.append(child)
                pending.append(child)
        functions.sort(key=_position)
        outside.sort(key=_position)
        return [_ordered_statements(func, self._walk(func)) for func in functions] + [outside]

    def _classify_stats_call(self, node: ast.Call, bindings: LocalStringBindings) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        method = func.attr
        key_node = node.args[0]
        if method in _RECORD_METHODS and _is_stats_receiver(func.value):
            self._record_site(node, key_node, bindings)
        elif method in _READ_METHODS:
            key = _literal_of(key_node, bindings)
            if key is None:
                return
            if _is_stats_receiver(func.value):
                self._add_read(key, node)
            elif "/" in key:
                # Heuristic widening: a slash-shaped literal read through
                # any .get()/.mean()-style accessor (StatsSnapshot copies,
                # metric dicts) still participates in liveness.
                self._add_read(key, node)

    def _record_site(
        self, site: ast.expr, key_node: ast.expr, bindings: LocalStringBindings
    ) -> None:
        """Record the key(s) *key_node* names, anchored at *site*.

        Every record site yields at least one :class:`KeySite`.  A key
        that is no literal, literal-bound local or literal-key-table entry
        is kept as its f-string's literal prefix (``pattern``) or, with no
        prefix to go on, as ``dynamic``, which RL101 skips.
        """
        line, col = site.lineno, site.col_offset
        key = _literal_of(key_node, bindings)
        if key is not None:
            kind = "literal" if isinstance(key_node, ast.Constant) else "var"
            self.facts.stats_records.append(KeySite(key=key, line=line, col=col, kind=kind))
            return
        if (
            isinstance(key_node, ast.Subscript)
            and isinstance(key_node.value, ast.Name)
            and key_node.value.id in self.facts.key_tables
        ):
            for key in self.facts.key_tables[key_node.value.id]:
                self.facts.stats_records.append(
                    KeySite(key=key, line=line, col=col, kind="table")
                )
            return
        prefix = ""
        if (
            isinstance(key_node, ast.JoinedStr)
            and key_node.values
            and isinstance(key_node.values[0], ast.Constant)
        ):
            prefix = str(key_node.values[0].value)
        kind = "pattern" if prefix else "dynamic"
        self.facts.stats_records.append(KeySite(key=prefix, line=line, col=col, kind=kind))

    def _add_read(self, key: str, node: ast.Call) -> None:
        self.facts.stats_reads.append(
            KeySite(key=key, line=node.lineno, col=node.col_offset, kind="literal")
        )


def _literal_of(node: ast.expr, bindings: LocalStringBindings) -> Optional[str]:
    """The string a key expression statically names, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return bindings.lookup(node.id)
    return None


def _ordered_statements(func: FunctionNode, nodes: Sequence[ast.AST]) -> List[ast.stmt]:
    """Every statement inside *func* (whose *nodes* these are), in source order."""
    out: List[ast.stmt] = []
    for node in nodes:
        if isinstance(node, ast.stmt) and node is not func:
            out.append(node)
    out.sort(key=_position)
    return out


def _position(stmt: ast.stmt) -> Tuple[int, int]:
    return stmt.lineno, stmt.col_offset


def _calls_of(stmt: ast.stmt) -> List[ast.Call]:
    """Every call in *stmt*'s own expressions, breadth-first: a compound
    statement's header (``if``/``while``/``for``/``with``) to any depth,
    but not the statements nested in its body."""
    out: List[ast.Call] = []
    queue: List[ast.AST] = [stmt]
    for node in queue:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                continue
            if isinstance(child, ast.Call):
                out.append(child)
            queue.append(child)
    return out


def extract_module_facts(relpath: str, tree: ast.Module) -> ModuleFacts:
    """Extract the whole-program facts of one parsed source file."""
    return _Extractor(relpath, tree).run()
