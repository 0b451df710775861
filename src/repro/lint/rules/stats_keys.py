"""RL002 — stats-key hygiene: record sites name their keys statically.

Every number in the paper's figures flows through
:class:`repro.common.stats.StatsRegistry` under a slash-separated string
key.  A dynamically-built key at a record site defeats static auditing
of that key space — RL101 can only prove liveness and catch typo'd keys
for keys it can read — and costs a string build per event.  The rule
reads the record sites the whole-program extractor finds
(:mod:`repro.lint.program.extract`): ``stats.add``/``stats.observe``
calls, and writes into the registry's live dicts
(``stats._counters[key] += 1.0``, directly or through a local bound to
one), the shape per-event paths record in.  It flags every site whose
key is not

* a string literal, or
* a **literal-key table** entry: a module-level dict/tuple whose values
  are all string literals, indexed at the record site
  (``counters[_SERVICED_KEYS[kind]] += 1.0``) — RL101 records every
  table value, so the key set stays fully auditable at zero per-event
  cost.

It applies in the simulation packages and in every function marked
``# repro-hot`` (:func:`repro.lint.rules.hot_path.marked_hot`), wherever
that function lives.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.lint.engine import ProjectContext, Severity, SourceFile, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel
from repro.lint.rules.hot_path import marked_hot

#: Record-site kinds whose keys are read straight off the source.
_STATIC_KINDS = frozenset({"literal", "table"})


@register_rule
class StatsKeyRule(ProgramRule):
    """RL002: record sites in simulation code use static keys."""

    rule_id = "RL002"
    name = "stats-keys"
    default_severity = Severity.WARNING

    def __init__(self) -> None:
        #: relpath -> line spans of the file's ``# repro-hot`` functions.
        self.hot_spans: Dict[str, List[Tuple[int, int]]] = {}

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        self.hot_spans[source.relpath] = [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(source.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and marked_hot(source, node)
        ]

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for facts in model.table.modules.values():
            spans = self.hot_spans.get(facts.relpath, [])
            for site in facts.stats_records:
                if site.kind in _STATIC_KINDS:
                    continue
                if not facts.in_sim_package and not any(
                    start <= site.line <= end for start, end in spans
                ):
                    continue
                if site.kind == "pattern":
                    message = (
                        "f-string stats key on a simulation path: the key "
                        "set cannot be audited statically and the f-string "
                        "is built per event; prefer a precomputed "
                        "literal-key table"
                    )
                else:
                    message = (
                        "non-literal stats key on a simulation path: "
                        "dynamic keys defeat static key auditing; use a "
                        "string literal or a literal-key table"
                    )
                self.emit_at(ctx, facts.relpath, site.line, site.col, message)
