"""The project-wide symbol table: modules, classes, functions, imports.

Maps the linted file tree onto dotted module names (``src/repro/sim/
system.py`` → ``repro.sim.system``), indexes every class and function
defined in the program, and resolves the unresolved :data:`Ref`
descriptors the per-file extractor records (imported names, ``self.``
method calls, dotted chains) to program symbols.

Resolution is deliberately conservative: a reference that cannot be
pinned to a project symbol resolves to ``None`` (external — the
standard library, ...) and the analyses treat it as opaque.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.program.facts import ClassFacts, FunctionFacts, ModuleFacts, Ref

#: A program-unique symbol id: "module:Class.method", "module:Class",
#: or "module:function".
SymbolId = str


def module_name_for(relpath: str) -> str:
    """Dotted module name of a repo-relative path.

    A leading ``src/`` segment (the packaging layout) is dropped, so
    ``src/repro/sim/system.py`` → ``repro.sim.system``; fixture projects
    without the layout map directly (``sim/model.py`` → ``sim.model``).
    ``__init__.py`` names the package itself.
    """
    parts = [part for part in relpath.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts)


class SymbolTable:
    """Whole-program index over every module's extracted facts."""

    def __init__(self, modules: Iterable[ModuleFacts]):
        #: dotted module name -> its facts.
        self.modules: Dict[str, ModuleFacts] = {}
        #: "module:Class" -> class facts (with the owning module name).
        self.classes: Dict[SymbolId, Tuple[str, ClassFacts]] = {}
        #: "module:qualname" -> function facts.
        self.functions: Dict[SymbolId, Tuple[str, FunctionFacts]] = {}
        #: bare class name -> defining modules (for last-resort lookup).
        self._class_modules: Dict[str, List[str]] = {}
        for facts in modules:
            self.modules[facts.module] = facts
            for name, cls in facts.classes.items():
                self.classes[f"{facts.module}:{name}"] = (facts.module, cls)
                self._class_modules.setdefault(name, []).append(facts.module)
            for qualname, fn in facts.functions.items():
                self.functions[f"{facts.module}:{qualname}"] = (facts.module, fn)

    # -- lookups -----------------------------------------------------------
    def class_named(self, symbol: SymbolId) -> Optional[ClassFacts]:
        entry = self.classes.get(symbol)
        return entry[1] if entry is not None else None

    def function_named(self, symbol: SymbolId) -> Optional[FunctionFacts]:
        entry = self.functions.get(symbol)
        return entry[1] if entry is not None else None

    def method_of(self, class_symbol: SymbolId, method: str) -> Optional[SymbolId]:
        """Resolve *method* on a class, walking project-local bases."""
        seen = set()
        queue = [class_symbol]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            module, cls = entry
            if method in cls.methods:
                return f"{module}:{cls.name}.{method}"
            for base in cls.bases:
                resolved = self.resolve_class(module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    # -- reference resolution ----------------------------------------------
    def _resolve_dotted(self, module: str, dotted: str) -> Optional[SymbolId]:
        """Resolve an absolute dotted name against the program's modules.

        Tries the longest module prefix: ``repro.sim.cpu.Core`` splits
        into module ``repro.sim.cpu`` + symbol ``Core``;
        ``repro.sim.cpu.Core.execute`` yields the method symbol.
        """
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            candidate = ".".join(parts[:split])
            if candidate not in self.modules:
                continue
            remainder = parts[split:]
            if not remainder:
                return None  # a bare module is not a class/function symbol
            head = f"{candidate}:{remainder[0]}"
            if len(remainder) == 1:
                if head in self.classes or head in self.functions:
                    return head
                return None
            if len(remainder) == 2 and head in self.classes:
                return self.method_of(head, remainder[1])
            return None
        return None

    def _expand_local(self, module: str, name: str) -> Optional[str]:
        """Dotted target of *name* in *module*: import, or local symbol."""
        facts = self.modules.get(module)
        if facts is None:
            return None
        if name in facts.imports:
            return facts.imports[name]
        if name in facts.classes or name in facts.functions:
            return f"{module}.{name}"
        return None

    def resolve_ref(
        self, module: str, ref: Ref, self_class: Optional[str] = None
    ) -> Optional[SymbolId]:
        """Resolve an extractor :data:`Ref` to a program symbol (or None).

        ``("local", name)`` looks through the module's imports and
        definitions; ``("self", method)`` resolves on *self_class* with
        base-class walking; ``("dotted", root, *attrs)`` expands the root
        and then resolves the absolute dotted chain.
        """
        if not ref:
            return None
        kind = ref[0]
        if kind == "local" and len(ref) == 2:
            dotted = self._expand_local(module, ref[1])
            return self._resolve_dotted(module, dotted) if dotted else None
        if kind == "self" and len(ref) == 2:
            if self_class is None:
                return None
            return self.method_of(f"{module}:{self_class}", ref[1])
        if kind == "dotted" and len(ref) >= 2:
            dotted = self._expand_local(module, ref[1])
            if dotted is None:
                return None
            return self._resolve_dotted(module, ".".join([dotted, *ref[2:]]))
        return None

    def resolve_class(self, module: str, ref: Ref) -> Optional[SymbolId]:
        """Resolve *ref* to a class symbol, trying harder than
        :meth:`resolve_ref`: a constructor reference, a class-table
        subscript, or a bare annotation name that uniquely identifies a
        project class.
        """
        if ref and ref[0] == "table" and len(ref) == 2:
            return None  # expanded by the caller via class_table_targets
        symbol = self.resolve_ref(module, ref)
        if symbol is not None and symbol in self.classes:
            return symbol
        # A bare name used in an annotation without an import (same-module
        # class, or a unique project-wide class name).
        if ref and ref[0] in ("local", "dotted") and len(ref) >= 2:
            name = ref[-1]
            local = f"{module}:{name}"
            if local in self.classes:
                return local
            defining = self._class_modules.get(name, [])
            if len(defining) == 1:
                return f"{defining[0]}:{name}"
        return None

    def class_table_targets(self, module: str, table: str) -> List[SymbolId]:
        """Class symbols named by a module-level class table's values."""
        facts = self.modules.get(module)
        if facts is None or table not in facts.class_tables:
            return []
        out: List[SymbolId] = []
        for name in facts.class_tables[table]:
            resolved = self.resolve_class(module, ("local", name))
            if resolved is not None:
                out.append(resolved)
        return out
