"""The project call graph, resolved from per-module extraction facts.

Nodes are program function symbols (``module:Class.method`` or
``module:function``); edges carry the call site (file, line, col) so
rules can point findings at real source locations.  Calls that resolve
to nothing (stdlib, dynamic dispatch we cannot see) are simply
absent — the analyses treat unresolved callees as opaque.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.program.facts import ModuleFacts
from repro.lint.program.symbols import SymbolId, SymbolTable


class CallEdge:
    """One resolved call site: *caller* invokes *callee* at line/col."""

    __slots__ = ("caller", "callee", "line", "col")

    def __init__(self, caller: SymbolId, callee: SymbolId, line: int, col: int):
        self.caller = caller
        self.callee = callee
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"CallEdge({self.caller} -> {self.callee} @{self.line})"


class CallGraph:
    """Resolved caller → callee edges over the whole program."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.edges: List[CallEdge] = []
        self._out: Dict[SymbolId, List[CallEdge]] = {}
        self._in: Dict[SymbolId, List[CallEdge]] = {}
        self._build()

    def _build(self) -> None:
        for module, facts in self.table.modules.items():
            for qualname, fn in facts.functions.items():
                caller = f"{module}:{qualname}"
                self_class = qualname.split(".")[0] if "." in qualname else None
                for ref, line, col in fn.calls:
                    callee = self.table.resolve_ref(module, ref, self_class)
                    if callee is None or callee not in self.table.functions:
                        continue
                    edge = CallEdge(caller, callee, line, col)
                    self.edges.append(edge)
                    self._out.setdefault(caller, []).append(edge)
                    self._in.setdefault(callee, []).append(edge)

    def callees_of(self, symbol: SymbolId) -> List[CallEdge]:
        return self._out.get(symbol, [])

    def callers_of(self, symbol: SymbolId) -> List[CallEdge]:
        return self._in.get(symbol, [])

    def reachable_from(self, roots: Iterable[SymbolId]) -> Set[SymbolId]:
        """Transitive closure of callees starting at *roots*."""
        seen: Set[SymbolId] = set()
        queue = list(roots)
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.callees_of(current):
                queue.append(edge.callee)
        return seen

    # -- rendering ---------------------------------------------------------
    def to_dot(self, *, max_label: int = 60) -> str:
        """Graphviz source for the resolved call graph, grouped by module."""
        by_module: Dict[str, Set[str]] = {}
        mentioned: Set[SymbolId] = set()
        for edge in self.edges:
            mentioned.add(edge.caller)
            mentioned.add(edge.callee)
        for symbol in sorted(mentioned):
            module, _, qualname = symbol.partition(":")
            by_module.setdefault(module, set()).add(qualname)
        lines = [
            "digraph callgraph {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for index, (module, names) in enumerate(sorted(by_module.items())):
            lines.append(f'  subgraph "cluster_{index}" {{')
            lines.append(f'    label="{module}";')
            for name in sorted(names):
                label = name if len(name) <= max_label else name[: max_label - 1] + "…"
                lines.append(f'    "{module}:{name}" [label="{label}"];')
            lines.append("  }")
        seen_pairs: Set[Tuple[SymbolId, SymbolId]] = set()
        for edge in self.edges:
            pair = (edge.caller, edge.callee)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            lines.append(f'  "{edge.caller}" -> "{edge.callee}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def module_of(symbol: SymbolId) -> str:
    return symbol.partition(":")[0]


def relpath_of(table: SymbolTable, symbol: SymbolId) -> Optional[str]:
    facts: Optional[ModuleFacts] = table.modules.get(module_of(symbol))
    return facts.relpath if facts is not None else None
