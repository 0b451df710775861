"""Whole-program composition: facts → symbol table → fixpoints.

:func:`build_program_model` turns the per-file facts (extracted fresh or
served from the content-hash cache) into the cross-module conclusions
the RL1xx rules consume:

* aggregated stats-key record/read sites (RL101 liveness);
* an interprocedural taint fixpoint over the call graph — which
  functions return nondeterminism-tainted values, which parameters reach
  stats/state sinks — and the resulting source→sink findings (RL102);
* the checkpoint-reachable class closure rooted at ``System`` with the
  attribute/subclass path that witnesses each class's reachability
  (RL103).

Propagation runs from scratch every time — it is linear-ish in the size
of the facts and takes milliseconds; only parsing + extraction is worth
caching.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.program.cache import AnalysisCache
from repro.lint.program.callgraph import CallGraph
from repro.lint.program.extract import extract_module_facts
from repro.lint.program.facts import KeySite, ModuleFacts, Ref
from repro.lint.program.symbols import SymbolId, SymbolTable

#: Class names treated as checkpoint roots when present in the program.
DEFAULT_ROOT_CLASSES = ("System",)

#: Directory names never scanned for program sources.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro_cache", "repro.egg-info"})

#: Fixpoint iteration bound; cycles converge far earlier in practice.
_MAX_PASSES = 50


@dataclass(frozen=True)
class SinkPath:
    """A parameter-to-sink witness: which sink, through which calls."""

    kind: str
    detail: str
    #: Function symbols from the entry function down to the sink's owner.
    chain: Tuple[SymbolId, ...]


@dataclass(frozen=True)
class TaintFinding:
    """One whole-program source→sink flow, anchored at the source site."""

    relpath: str
    function: SymbolId
    line: int
    col: int
    source: str
    sink_kind: str
    sink_detail: str
    chain: Tuple[SymbolId, ...]


class ProgramModel:
    """The resolved whole-program view handed to RL1xx rules."""

    def __init__(self, table: SymbolTable, graph: CallGraph):
        self.table = table
        self.graph = graph
        #: stats key -> [(relpath, site)] across the whole program.
        self.recorded: Dict[str, List[Tuple[str, KeySite]]] = {}
        self.read: Dict[str, List[Tuple[str, KeySite]]] = {}
        #: f-string record prefixes: [(prefix, relpath, site)].
        self.record_patterns: List[Tuple[str, str, KeySite]] = []
        #: function symbol -> nondeterminism sources its return may carry.
        self.ret_sources: Dict[SymbolId, FrozenSet[str]] = {}
        #: function symbol -> param index -> sink witnesses.
        self.param_sinks: Dict[SymbolId, Dict[int, Tuple[SinkPath, ...]]] = {}
        self.taint_findings: List[TaintFinding] = []
        #: checkpoint-reachable class symbol -> human attribute chain.
        self.reachable: Dict[SymbolId, str] = {}
        self.root_symbols: List[SymbolId] = []
        self.cache_hits = 0
        self.cache_misses = 0

    # -- convenience -------------------------------------------------------
    def relpath_of(self, symbol: SymbolId) -> Optional[str]:
        facts = self.table.modules.get(symbol.partition(":")[0])
        return facts.relpath if facts is not None else None

    def class_is_snapshot_handled(self, symbol: SymbolId) -> bool:
        """Owns its encoding (``__getstate__`` & co.)."""
        cls = self.table.class_named(symbol)
        return cls is None or cls.exempt


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _scan_program_files(
    root: Path, paths: Sequence[Path], known: Set[str]
) -> List[Tuple[str, Path]]:
    out: List[Tuple[str, Path]] = []
    for base in paths:
        if not base.is_dir():
            continue
        for candidate in sorted(base.rglob("*.py")):
            if _SKIP_DIRS.intersection(candidate.parts):
                continue
            try:
                relpath = candidate.resolve().relative_to(root).as_posix()
            except ValueError:
                relpath = candidate.as_posix()
            if relpath not in known:
                known.add(relpath)
                out.append((relpath, candidate))
    return out


def _facts_for(
    relpath: str,
    text: str,
    tree: Optional[ast.Module],
    cache: Optional[AnalysisCache],
    model: ProgramModel,
) -> Optional[ModuleFacts]:
    if cache is not None:
        cached = cache.get(relpath, text)
        if cached is not None:
            model.cache_hits += 1
            return cached
    if tree is None:
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError:
            return None
    model.cache_misses += 1
    facts = extract_module_facts(relpath, tree)
    if cache is not None:
        cache.put(relpath, text, facts)
    return facts


def build_program_model(
    root: Path,
    sources: Sequence[object],
    cache: Optional[AnalysisCache] = None,
    root_classes: Sequence[str] = DEFAULT_ROOT_CLASSES,
) -> ProgramModel:
    """Build the whole-program model.

    *sources* are the engine's parsed :class:`SourceFile` objects (any
    object with ``relpath``/``text``/``tree`` attributes).  When the repo
    layout (``src/repro``) exists under *root*, files outside the linted
    set are scanned in too, so a partial lint still reasons against the
    full program.
    """
    placeholder = ProgramModel(SymbolTable([]), CallGraph(SymbolTable([])))
    all_facts: List[ModuleFacts] = []
    known: Set[str] = set()
    for source in sources:
        relpath = getattr(source, "relpath")
        known.add(relpath)
        facts = _facts_for(
            relpath, getattr(source, "text"), getattr(source, "tree"), cache, placeholder
        )
        if facts is not None:
            all_facts.append(facts)
    for relpath, path in _scan_program_files(root, [root / "src" / "repro"], known):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        facts = _facts_for(relpath, text, None, cache, placeholder)
        if facts is not None:
            all_facts.append(facts)
    if cache is not None:
        cache.save()

    table = SymbolTable(all_facts)
    model = ProgramModel(table, CallGraph(table))
    model.cache_hits = placeholder.cache_hits
    model.cache_misses = placeholder.cache_misses
    _aggregate_stats(model)
    _run_taint_fixpoint(model)
    _collect_taint_findings(model)
    _compute_reachability(model, root_classes)
    return model


# -- stats -----------------------------------------------------------------


def _aggregate_stats(model: ProgramModel) -> None:
    for facts in model.table.modules.values():
        for site in facts.stats_records:
            if site.kind == "dynamic":
                continue  # names no key: RL002's finding, not RL101's
            if site.kind == "pattern":
                model.record_patterns.append((site.key, facts.relpath, site))
            else:
                model.recorded.setdefault(site.key, []).append((facts.relpath, site))
        for site in facts.stats_reads:
            model.read.setdefault(site.key, []).append((facts.relpath, site))


# -- taint fixpoint ---------------------------------------------------------


def _self_class(qualname: str) -> Optional[str]:
    return qualname.split(".")[0] if "." in qualname else None


def _run_taint_fixpoint(model: ProgramModel) -> None:
    table = model.table
    functions = [
        (module, qualname, fn)
        for module, facts in table.modules.items()
        for qualname, fn in facts.functions.items()
    ]
    ret: Dict[SymbolId, FrozenSet[str]] = {}
    sinks: Dict[SymbolId, Dict[int, Set[SinkPath]]] = {}
    for module, qualname, _ in functions:
        symbol = f"{module}:{qualname}"
        ret[symbol] = frozenset()
        sinks[symbol] = {}

    for _ in range(_MAX_PASSES):
        changed = False
        for module, qualname, fn in functions:
            symbol = f"{module}:{qualname}"
            owner = _self_class(qualname)
            for flow in fn.flows:
                src, dst = flow.src, flow.dst
                if dst == ("return",):
                    if src[0] == "source":
                        if src[1] not in ret[symbol]:
                            ret[symbol] = ret[symbol] | {src[1]}
                            changed = True
                    elif src[0] == "call":
                        callee = table.resolve_ref(module, tuple(src[1:]), owner)
                        if callee is not None and not ret.get(callee, frozenset()) <= ret[symbol]:
                            ret[symbol] = ret[symbol] | ret[callee]
                            changed = True
                elif dst[0] == "sink" and src[0] == "param":
                    path = SinkPath(kind=dst[1], detail=dst[2], chain=(symbol,))
                    index = int(src[1])
                    bucket = sinks[symbol].setdefault(index, set())
                    if path not in bucket:
                        bucket.add(path)
                        changed = True
                elif dst[0] == "call_arg" and src[0] == "param":
                    callee = table.resolve_ref(module, tuple(dst[2:]), owner)
                    if callee is None:
                        continue
                    index = int(src[1])
                    for path in sinks.get(callee, {}).get(int(dst[1]), ()):
                        if symbol in path.chain:
                            continue  # recursion guard
                        extended = SinkPath(
                            kind=path.kind, detail=path.detail,
                            chain=(symbol,) + path.chain,
                        )
                        bucket = sinks[symbol].setdefault(index, set())
                        if extended not in bucket:
                            bucket.add(extended)
                            changed = True
        if not changed:
            break

    model.ret_sources = ret
    model.param_sinks = {
        symbol: {index: tuple(sorted(paths, key=lambda p: p.chain))
                 for index, paths in per_fn.items()}
        for symbol, per_fn in sinks.items()
    }


def _collect_taint_findings(model: ProgramModel) -> None:
    table = model.table
    seen: Set[Tuple[str, int, int, str, str]] = set()

    def add(
        relpath: str, symbol: SymbolId, line: int, col: int,
        source: str, kind: str, detail: str, chain: Tuple[SymbolId, ...],
    ) -> None:
        key = (relpath, line, col, source, detail)
        if key in seen:
            return
        seen.add(key)
        model.taint_findings.append(
            TaintFinding(
                relpath=relpath, function=symbol, line=line, col=col,
                source=source, sink_kind=kind, sink_detail=detail, chain=chain,
            )
        )

    for module, facts in table.modules.items():
        for qualname, fn in facts.functions.items():
            symbol = f"{module}:{qualname}"
            owner = _self_class(qualname)
            for flow in fn.flows:
                src, dst = flow.src, flow.dst
                sources: List[str] = []
                if src[0] == "source":
                    sources = [src[1]]
                elif src[0] == "call":
                    callee = table.resolve_ref(module, tuple(src[1:]), owner)
                    if callee is not None:
                        sources = sorted(model.ret_sources.get(callee, frozenset()))
                if not sources:
                    continue
                if dst[0] == "sink":
                    for source in sources:
                        add(
                            facts.relpath, symbol, flow.line, flow.col,
                            source, dst[1], dst[2], (symbol,),
                        )
                elif dst[0] == "call_arg":
                    callee = table.resolve_ref(module, tuple(dst[2:]), owner)
                    if callee is None:
                        continue
                    for path in model.param_sinks.get(callee, {}).get(int(dst[1]), ()):
                        for source in sources:
                            add(
                                facts.relpath, symbol, flow.line, flow.col,
                                source, path.kind, path.detail,
                                (symbol,) + path.chain,
                            )
    model.taint_findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.source))


# -- checkpoint reachability ------------------------------------------------


def _class_edge_targets(
    model: ProgramModel, module: str, cls_symbol: SymbolId, target: Ref
) -> List[SymbolId]:
    """Resolve one attr-edge target ref to class symbols."""
    table = model.table
    if target and target[0] == "table" and len(target) == 2:
        name = target[1]
        symbols = table.class_table_targets(module, name)
        if symbols:
            return symbols
        # The table itself may be imported from another module.
        facts = table.modules.get(module)
        if facts is not None and name in facts.imports:
            dotted = facts.imports[name]
            owner, _, table_name = dotted.rpartition(".")
            return table.class_table_targets(owner, table_name)
        return []
    if target and target[0] == "self" and len(target) == 2:
        # A factory method: follow what it constructs/annotates.
        method_symbol = table.method_of(cls_symbol, target[1])
        if method_symbol is None:
            return []
        fn = table.function_named(method_symbol)
        if fn is None:
            return []
        method_module = method_symbol.partition(":")[0]
        out: List[SymbolId] = []
        for ref in fn.returns_new:
            out.extend(_class_edge_targets(model, method_module, cls_symbol, ref))
        for leaf in fn.return_annotation:
            resolved = table.resolve_class(method_module, ("local", leaf))
            if resolved is not None:
                out.append(resolved)
        return out
    resolved = table.resolve_class(module, target)
    return [resolved] if resolved is not None else []


def _compute_reachability(model: ProgramModel, root_classes: Sequence[str]) -> None:
    """Close the checkpoint-reachable class set over attribute edges.

    A class is reachable from a root through its attribute edges and
    those of its project-local ancestors.  A reference typed as a base
    class may hold any subclass, so every project subclass of a reachable
    class is reachable too.  Classes owning their encoding are reachable
    but not traversed, subclasses included.
    """
    table = model.table
    roots = [
        symbol
        for symbol, (_, cls) in sorted(table.classes.items())
        if cls.name in root_classes
    ]
    model.root_symbols = roots
    subclasses: Dict[SymbolId, List[SymbolId]] = {}
    for symbol, (module, cls) in sorted(table.classes.items()):
        for base in cls.bases:
            resolved = table.resolve_class(module, base)
            if resolved is not None:
                subclasses.setdefault(resolved, []).append(symbol)
    queue: List[Tuple[SymbolId, str]] = [
        (symbol, table.classes[symbol][1].name) for symbol in roots
    ]
    while queue:
        symbol, via = queue.pop(0)
        if symbol in model.reachable:
            continue
        model.reachable[symbol] = via
        if model.class_is_snapshot_handled(symbol) and symbol not in roots:
            continue  # exempt classes own their snapshot encoding
        for sub in subclasses.get(symbol, []):
            queue.append((sub, f"{via} → subclass {table.classes[sub][1].name}"))
        # Attribute edges of the class and its project-local ancestors.
        ancestry: List[SymbolId] = []
        pending = [symbol]
        while pending:
            current = pending.pop(0)
            if current in ancestry:
                continue
            ancestry.append(current)
            entry = table.classes.get(current)
            if entry is None:
                continue
            current_module, current_cls = entry
            for base in current_cls.bases:
                resolved = table.resolve_class(current_module, base)
                if resolved is not None:
                    pending.append(resolved)
        for owner_symbol in ancestry:
            entry = table.classes.get(owner_symbol)
            if entry is None:
                continue
            owner_module, owner_cls = entry
            for edge in owner_cls.attr_edges:
                for child in _class_edge_targets(
                    model, owner_module, owner_symbol, edge.target
                ):
                    child_cls = table.class_named(child)
                    if child_cls is None or child in model.reachable:
                        continue
                    queue.append((child, f"{via}.{edge.attr} → {child_cls.name}"))
