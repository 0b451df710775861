"""RL104 — SoA kernel contracts for ``# repro-hot`` numpy code.

PR 6's batched engine made structure-of-arrays kernels load-bearing:
the producer allocates ``self.ticks = np.zeros(n, dtype=np.int64)`` in
one module and the consumer vectorizes over it in another.  Three
silent performance/correctness hazards cross that module boundary:

* **dtype widening** — the same ``Class.attr`` array allocated with
  different dtypes at different sites (or re-``astype``'d wider in a hot
  kernel), so every binary op upcasts and doubles memory traffic;
* **implicit float64** — numpy's silent default on ``zeros``/``ones``/
  ``empty``/``full`` when the sibling allocation spells out an integer
  dtype, a classic source of accidental float counters;
* **per-element escapes** — ``.item()``/``.tolist()`` round-trips inside
  loops, and array-copying allocators (``np.append``/``concatenate``/
  ``copy``) inside hot kernels, which reintroduce the per-event Python
  costs the SoA refactor removed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.extract import DTYPE_ORDER
from repro.lint.program.facts import ArrayFact
from repro.lint.program.model import ProgramModel


def _width(dtype: str) -> int:
    return DTYPE_ORDER.get(dtype, 0)


@register_rule
class SoaContractRule(ProgramRule):
    """RL104: hot-array dtype/shape discipline across modules."""

    rule_id = "RL104"
    name = "program-soa-contracts"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        self._check_dtype_conflicts(model, ctx)
        self._check_hot_events(model, ctx)

    # -- allocation-site contracts ----------------------------------------
    def _check_dtype_conflicts(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for target in sorted(model.arrays_by_target):
            sites = model.arrays_by_target[target]
            if len(sites) < 2:
                continue
            narrowest = min(sites, key=lambda entry: _width(entry[1].dtype))
            for relpath, fact in sites:
                if _width(fact.dtype) <= _width(narrowest[1].dtype):
                    continue
                origin = (
                    "numpy's implicit float64 default"
                    if not fact.explicit
                    else f"dtype {fact.dtype}"
                )
                self.emit_at(
                    ctx, relpath, fact.line, fact.col,
                    f"SoA array {target} is allocated with {origin} here but "
                    f"with dtype {narrowest[1].dtype} at "
                    f"{narrowest[0]}:{narrowest[1].line} — mixed dtypes make "
                    "every cross-site binary op upcast and double memory "
                    "traffic; pick one dtype for the array's whole lifetime",
                )

    # -- hot-kernel events -------------------------------------------------
    def _known_dtypes(self, model: ProgramModel) -> Dict[str, List[Tuple[str, ArrayFact]]]:
        by_attr: Dict[str, List[Tuple[str, ArrayFact]]] = {}
        for target, sites in model.arrays_by_target.items():
            attr = target.rpartition(".")[2]
            by_attr.setdefault(attr, []).extend(sites)
        return by_attr

    def _check_hot_events(self, model: ProgramModel, ctx: ProjectContext) -> None:
        by_attr = self._known_dtypes(model)
        for facts in model.table.modules.values():
            for event in facts.numpy_events:
                if event.kind == "scalar_loop":
                    self.emit_at(
                        ctx, facts.relpath, event.line, event.col,
                        f"per-element {event.detail} round-trip inside a loop "
                        f"in repro-hot {event.function} — this boxes a Python "
                        "object per event; hoist the conversion out of the "
                        "loop or keep the computation in numpy",
                    )
                elif event.kind == "alloc":
                    self.emit_at(
                        ctx, facts.relpath, event.line, event.col,
                        f"{event.detail} in repro-hot {event.function} copies "
                        "its array arguments on every call; preallocate and "
                        "fill in place if this is per-batch",
                        severity=Severity.INFO,
                    )
                elif event.kind == "astype":
                    self._check_astype(model, ctx, facts.relpath, event, by_attr)

    def _check_astype(
        self,
        model: ProgramModel,
        ctx: ProjectContext,
        relpath: str,
        event: object,
        by_attr: Dict[str, List[Tuple[str, ArrayFact]]],
    ) -> None:
        target = getattr(event, "target")
        detail = getattr(event, "detail")
        if not target or not detail or _width(detail) == 0:
            return
        for alloc_relpath, fact in by_attr.get(target, []):
            if _width(detail) > _width(fact.dtype):
                self.emit_at(
                    ctx, relpath, getattr(event, "line"), getattr(event, "col"),
                    f"astype({detail}) in repro-hot {getattr(event, 'function')} "
                    f"widens {fact.target} (allocated as {fact.dtype} at "
                    f"{alloc_relpath}:{fact.line}) and copies the whole "
                    "array; allocate at the wider dtype once or narrow the "
                    "computation",
                )
                return
