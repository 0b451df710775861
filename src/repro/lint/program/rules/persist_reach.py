"""RL105 — persist discipline: state files go through ``repro.persist``.

Every durable write — checkpoints, sweep manifests, result/cache files,
bench documents — goes through :mod:`repro.persist`, which supplies the
same-directory temp + fsync + ``os.replace`` atomicity, the embedded
checksum stamp that makes torn writes and bit-rot detectable, the typed
:class:`~repro.common.errors.PersistError` hierarchy, and the
storage-fault injection hook the chaos harness depends on.  A raw write
in the persistence-owning packages (``snapshot``, ``sweepd``,
``experiments``, plus ``bench.py``) silently opts the file out of all
four: it can tear under SIGKILL, ``repro fsck`` cannot verify it, and the
crash-consistency tests never exercise it.

Raw writes are ``open(..., mode)`` / ``<path>.open(mode)`` with a mode
containing ``w``, ``a``, ``x`` or ``+``, ``json.dump`` / ``pickle.dump``,
and ``<path>.write_text`` / ``write_bytes``
(:func:`~repro.lint.program.extract.classify_raw_write`).  The rule flags

* every raw write made directly inside the scope, at the write; and
* every call from the scope into a function outside it that performs a
  raw write, directly or transitively through further out-of-scope
  helpers — the laundering a per-file check cannot see.  The finding
  anchors at the *call site* in the scoped file (where the fix belongs,
  and where a pragma can be placed) and names the write it reaches.

``repro.persist`` and ``repro.fsck`` are exempt helpers: their raw
writes are the sanctioned implementation of the discipline.  Legitimate
exceptions in the scope (an append-only journal, a hard-link fallback
that copies an already-stamped file) carry an explicit
``# repro-lint: disable=RL105`` pragma, so bypassing the discipline is
visible and justified, not impossible.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.facts import RawWrite
from repro.lint.program.model import ProgramModel
from repro.lint.program.symbols import SymbolId

#: Packages whose files own durable state (checkpoints, manifests,
#: results, caches); ``bench.py`` writes BENCH_*.json documents.
SCOPE_PACKAGES = frozenset({"snapshot", "sweepd", "experiments"})
SCOPE_FILES = frozenset({"bench.py"})

#: Modules whose raw writes are the sanctioned implementation of the
#: discipline, not a bypass of it.
_EXEMPT_MODULES = frozenset({"repro.persist", "repro.fsck"})

_FIX_HINT = (
    "route it through repro.persist (write_json/atomic_write_bytes) so the "
    "file is atomic, checksummed, fault-injectable, and fsck-verifiable "
    "(docs/FAULTS.md)"
)


def in_persistence_scope(parts: Sequence[str]) -> bool:
    """True when a relpath's segments fall under the persistence scope."""
    return any(part in SCOPE_PACKAGES for part in parts) or (
        bool(parts) and parts[-1] in SCOPE_FILES
    )


@register_rule
class PersistReachRule(ProgramRule):
    """RL105: raw state writes in, or reached from, the persistence scope."""

    rule_id = "RL105"
    name = "program-persist-reach"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        scope = self._scoped_modules(model)
        writer_witness = self._transitive_writers(model, scope)
        emitted: Set[Tuple[str, int, int, SymbolId]] = set()
        for module in sorted(scope):
            facts = model.table.modules[module]
            for write in facts.raw_writes:
                self.emit_at(
                    ctx, facts.relpath, write.line, write.col,
                    f"raw {write.detail} bypasses the persistence layer — the "
                    f"write can tear under a crash and fsck cannot verify it; "
                    f"{_FIX_HINT}",
                )
            for qualname in sorted(facts.functions):
                symbol = f"{module}:{qualname}"
                for edge in model.graph.callees_of(symbol):
                    witness = writer_witness.get(edge.callee)
                    if witness is None:
                        continue  # in-scope callees report their own writes
                    key = (facts.relpath, edge.line, edge.col, edge.callee)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    writer_symbol, write = witness
                    location = self._describe(model, writer_symbol, write)
                    self.emit_at(
                        ctx, facts.relpath, edge.line, edge.col,
                        f"{qualname} calls {edge.callee}, which reaches a raw "
                        f"{write.detail} at {location} — a state write "
                        f"laundered outside the persistence packages; route "
                        f"it through repro.persist (docs/FAULTS.md)",
                    )

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _scoped_modules(model: ProgramModel) -> Set[str]:
        return {
            module
            for module, facts in model.table.modules.items()
            if in_persistence_scope(Path(facts.relpath).parts)
        }

    @staticmethod
    def _transitive_writers(
        model: ProgramModel, scope: Set[str]
    ) -> Dict[SymbolId, Tuple[SymbolId, RawWrite]]:
        """Out-of-scope function -> (writing symbol, RawWrite) witness.

        A function is a transitive writer when it, or any out-of-scope
        function it can reach through the call graph, records a raw
        write.  Scoped and exempt modules stop the propagation: scoped
        writes are reported where they are made, and the persistence
        layer's own writes are the discipline.
        """
        out: Dict[SymbolId, Tuple[SymbolId, RawWrite]] = {}
        eligible: List[SymbolId] = []
        for module, facts in model.table.modules.items():
            if module in scope or module in _EXEMPT_MODULES:
                continue
            for qualname, fn in facts.functions.items():
                symbol = f"{module}:{qualname}"
                eligible.append(symbol)
                if fn.raw_writes:
                    out[symbol] = (symbol, fn.raw_writes[0])
        # Propagate witnesses backwards over call edges until fixpoint.
        changed = True
        while changed:
            changed = False
            for symbol in eligible:
                if symbol in out:
                    continue
                for edge in model.graph.callees_of(symbol):
                    witness = out.get(edge.callee)
                    if witness is not None:
                        out[symbol] = witness
                        changed = True
                        break
        return out

    @staticmethod
    def _describe(model: ProgramModel, writer: SymbolId, write: RawWrite) -> str:
        relpath: Optional[str] = model.relpath_of(writer)
        where = relpath if relpath is not None else writer.partition(":")[0]
        return f"{where}:{write.line}"
