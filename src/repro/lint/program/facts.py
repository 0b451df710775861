"""Serializable per-file facts — the unit the analysis cache stores.

The whole-program analyzer never caches ASTs: it caches *facts*, the
distilled per-file summaries that the cross-module phases (symbol
resolution, call-graph propagation, rule evaluation) consume.  Facts are
plain dataclasses with lossless ``to_dict``/``from_dict`` round-trips, so
an incremental run can skip parsing and extraction for every file whose
content hash is unchanged (see :mod:`repro.lint.program.cache`).

Everything in here is *local* to one file: imports are recorded as raw
dotted targets, call sites as unresolved reference descriptors, taint
summaries in terms of parameter indices and callee references.  Turning
those local facts into whole-program conclusions is the job of
:mod:`repro.lint.program.model`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


def _lint_sources_digest(package: Path) -> str:
    """A digest of every source file under *package*, paths included."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


#: The facts schema version: any edit to the analyzer's sources changes
#: it, so a cache written by another extractor is never read.
FACTS_VERSION = _lint_sources_digest(Path(__file__).resolve().parents[1])

#: An unresolved reference to a called/constructed symbol, e.g.
#: ``("local", "Core")``, ``("self", "reset")``, or
#: ``("dotted", "os", "replace")``.  Resolution happens in the model phase.
Ref = Tuple[str, ...]


def _refs_to_json(refs: List[Ref]) -> List[List[str]]:
    return [list(ref) for ref in refs]


def _refs_from_json(raw: List[List[str]]) -> List[Ref]:
    return [tuple(item) for item in raw]


@dataclass
class KeySite:
    """One stats-key record or read site."""

    key: str
    line: int
    col: int
    #: "literal" | "table" | "var" (a literal-bound name) | "pattern" (an
    #: f-string's literal prefix) | "dynamic" (a record site whose key no
    #: static reading names; ``key`` is empty).
    kind: str

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "line": self.line, "col": self.col, "kind": self.kind}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "KeySite":
        return cls(str(raw["key"]), int(raw["line"]), int(raw["col"]), str(raw["kind"]))


@dataclass
class SinkSite:
    """A taint sink inside one function: a stats record or sim-state write."""

    #: "stats" (argument of a stats record call) or "state"
    #: (``self.<attr> = ...`` in a simulation-package class).
    kind: str
    detail: str
    line: int
    col: int

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SinkSite":
        return cls(str(raw["kind"]), str(raw["detail"]), int(raw["line"]), int(raw["col"]))


@dataclass
class TaintFlow:
    """One locally-observed taint flow, in summary form.

    ``src`` describes where the taint came from: a concrete source
    (``("source", "time.time")``) , a parameter (``("param", "2")``), or a
    call whose return value may be tainted (``("call",) + callee ref``).
    ``dst`` describes where it went: a sink (``("sink", kind, detail)``)
    with the site position, a call argument (``("call_arg", index) +
    callee ref``), or the function's return (``("return",)``).
    """

    src: Ref
    dst: Ref
    line: int
    col: int
    #: Human-readable description of the tainted value's origin.
    origin: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "src": list(self.src),
            "dst": list(self.dst),
            "line": self.line,
            "col": self.col,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TaintFlow":
        return cls(
            tuple(raw["src"]), tuple(raw["dst"]),
            int(raw["line"]), int(raw["col"]), str(raw["origin"]),
        )


@dataclass
class RawWrite:
    """One raw persistent-write call site (RL105)."""

    #: The raw-write classifier's description, e.g. ``open(..., "w")``.
    detail: str
    line: int
    col: int

    def to_dict(self) -> Dict[str, Any]:
        return {"detail": self.detail, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RawWrite":
        return cls(str(raw["detail"]), int(raw["line"]), int(raw["col"]))


@dataclass
class FunctionFacts:
    """Call sites plus the intraprocedural taint summary of one function."""

    qualname: str
    line: int
    #: Call sites: (ref, line, col) for the call-graph builder.
    calls: List[Tuple[Ref, int, int]] = field(default_factory=list)
    #: Locally-observed taint flows (see :class:`TaintFlow`).
    flows: List[TaintFlow] = field(default_factory=list)
    #: Constructor-shaped references this function may return.
    returns_new: List[Ref] = field(default_factory=list)
    #: The declared return annotation's class-name leaves, if any.
    return_annotation: List[str] = field(default_factory=list)
    #: Raw persistent-write sites, nested functions included (RL105).
    raw_writes: List[RawWrite] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "calls": [[list(ref), line, col] for ref, line, col in self.calls],
            "flows": [flow.to_dict() for flow in self.flows],
            "returns_new": _refs_to_json(self.returns_new),
            "return_annotation": list(self.return_annotation),
            "raw_writes": [site.to_dict() for site in self.raw_writes],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FunctionFacts":
        return cls(
            qualname=str(raw["qualname"]),
            line=int(raw["line"]),
            calls=[(tuple(ref), int(line), int(col)) for ref, line, col in raw["calls"]],
            flows=[TaintFlow.from_dict(flow) for flow in raw["flows"]],
            returns_new=_refs_from_json(raw["returns_new"]),
            return_annotation=[str(name) for name in raw["return_annotation"]],
            raw_writes=[RawWrite.from_dict(site) for site in raw["raw_writes"]],
        )


@dataclass
class AttrEdge:
    """One reason a class attribute may hold an instance of another class."""

    attr: str
    #: The unresolved class reference (constructor call, annotation leaf,
    #: container element, class-table value, or factory method name).
    target: Ref
    line: int

    def to_dict(self) -> Dict[str, Any]:
        return {"attr": self.attr, "target": list(self.target), "line": self.line}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "AttrEdge":
        return cls(str(raw["attr"]), tuple(raw["target"]), int(raw["line"]))


@dataclass
class UnsafeAssign:
    """A snapshot-unsafe ``self.<attr> = ...`` assignment (RL103)."""

    method: str
    problem: str
    line: int
    col: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method, "problem": self.problem,
            "line": self.line, "col": self.col,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "UnsafeAssign":
        return cls(str(raw["method"]), str(raw["problem"]), int(raw["line"]), int(raw["col"]))


@dataclass
class ClassFacts:
    """Attribute graph edges plus snapshot-safety facts for one class."""

    name: str
    line: int
    bases: List[Ref] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: Why instances of other classes may be reachable through attributes.
    attr_edges: List[AttrEdge] = field(default_factory=list)
    #: Snapshot-unsafe assignments (empty for safe and exempt classes).
    unsafe: List[UnsafeAssign] = field(default_factory=list)
    #: Owns its pickled encoding: defines __getstate__/__reduce__/
    #: __reduce_ex__ (RL103 does not look inside).
    exempt: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": _refs_to_json(self.bases),
            "methods": list(self.methods),
            "attr_edges": [edge.to_dict() for edge in self.attr_edges],
            "unsafe": [entry.to_dict() for entry in self.unsafe],
            "exempt": self.exempt,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ClassFacts":
        return cls(
            name=str(raw["name"]),
            line=int(raw["line"]),
            bases=_refs_from_json(raw["bases"]),
            methods=[str(name) for name in raw["methods"]],
            attr_edges=[AttrEdge.from_dict(edge) for edge in raw["attr_edges"]],
            unsafe=[UnsafeAssign.from_dict(entry) for entry in raw["unsafe"]],
            exempt=bool(raw["exempt"]),
        )


@dataclass
class ModuleFacts:
    """Everything the whole-program phases need to know about one file."""

    relpath: str
    module: str
    #: Local name -> dotted import target ("Core" -> "repro.sim.cpu.Core").
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level string constants (NAME = "literal").
    constants: Dict[str, str] = field(default_factory=dict)
    #: Module-level all-literal-string key tables (dicts/tuples/lists).
    key_tables: Dict[str, List[str]] = field(default_factory=dict)
    #: Module-level dicts whose values are all bare class-like Names.
    class_tables: Dict[str, List[str]] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    stats_records: List[KeySite] = field(default_factory=list)
    stats_reads: List[KeySite] = field(default_factory=list)
    #: Class names registered with repro.snapshot.codec.register_codec.
    codec_registered: List[str] = field(default_factory=list)
    #: Every raw persistent-write site in the file, at any nesting (RL105).
    raw_writes: List[RawWrite] = field(default_factory=list)
    #: Relpath segments place the file inside the simulation packages.
    in_sim_package: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": FACTS_VERSION,
            "relpath": self.relpath,
            "module": self.module,
            "imports": dict(self.imports),
            "constants": dict(self.constants),
            "key_tables": {name: list(keys) for name, keys in self.key_tables.items()},
            "class_tables": {name: list(vals) for name, vals in self.class_tables.items()},
            "classes": {name: cls.to_dict() for name, cls in self.classes.items()},
            "functions": {name: fn.to_dict() for name, fn in self.functions.items()},
            "stats_records": [site.to_dict() for site in self.stats_records],
            "stats_reads": [site.to_dict() for site in self.stats_reads],
            "codec_registered": list(self.codec_registered),
            "raw_writes": [site.to_dict() for site in self.raw_writes],
            "in_sim_package": self.in_sim_package,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> Optional["ModuleFacts"]:
        """Rebuild facts from a cache entry; None on schema mismatch."""
        if raw.get("version") != FACTS_VERSION:
            return None
        return cls(
            relpath=str(raw["relpath"]),
            module=str(raw["module"]),
            imports={str(k): str(v) for k, v in raw["imports"].items()},
            constants={str(k): str(v) for k, v in raw["constants"].items()},
            key_tables={str(k): [str(x) for x in v] for k, v in raw["key_tables"].items()},
            class_tables={str(k): [str(x) for x in v] for k, v in raw["class_tables"].items()},
            classes={
                str(name): ClassFacts.from_dict(sub)
                for name, sub in raw["classes"].items()
            },
            functions={
                str(name): FunctionFacts.from_dict(sub)
                for name, sub in raw["functions"].items()
            },
            stats_records=[KeySite.from_dict(site) for site in raw["stats_records"]],
            stats_reads=[KeySite.from_dict(site) for site in raw["stats_reads"]],
            codec_registered=[str(name) for name in raw["codec_registered"]],
            raw_writes=[RawWrite.from_dict(site) for site in raw["raw_writes"]],
            in_sim_package=bool(raw["in_sim_package"]),
        )
