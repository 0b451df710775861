"""RL002 — stats-key hygiene: record sites name their keys statically.

Every number in the paper's figures flows through
:class:`repro.common.stats.StatsRegistry` under a slash-separated string
key.  A dynamically-built key at a record site defeats static auditing
of that key space — RL101 can only prove liveness and catch typo'd keys
for keys it can read — and costs an f-string per event.  Inside the
simulation-critical packages this rule flags every ``stats.add(...)`` /
``stats.observe(...)`` call whose key is not statically known.  Per-event
record sites write the registry's live dicts instead
(``stats._counters["hmc/x"] += 1.0``), with the same key shapes, which
RL101 reads as record sites.  Accepted key shapes:

* a string literal;
* a **literal-key table**: a module-level dict/tuple whose values are all
  string literals, indexed at the record site
  (``stats.add(_SERVICED_KEYS[kind])``) — RL101 records every table
  value, so the key set stays fully auditable at zero per-event cost;
* a key precomputed once in ``__init__`` and stored in a ``self._key_*``
  attribute.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.lint.engine import (
    ProjectContext,
    Rule,
    Severity,
    SourceFile,
    register_rule,
)

_RECORD_METHODS = ("add", "observe")

#: Receivers treated as a stats registry: bare ``stats`` or any ``*.stats``.
_STATS_NAMES = ("stats",)


def _is_stats_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _STATS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _STATS_NAMES
    return False


def _literal_key_tables(source: SourceFile) -> Set[str]:
    """Module-level names bound to all-literal-string key collections."""
    tables: Set[str] = set()
    for node in source.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            elements = value.values
        elif isinstance(value, (ast.Tuple, ast.List)):
            elements = value.elts
        else:
            continue
        if elements and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in elements
        ):
            tables.add(target.id)
    return tables


@register_rule
class StatsKeyRule(Rule):
    """RL002: record sites in the simulation packages use static keys."""

    rule_id = "RL002"
    name = "stats-keys"
    default_severity = Severity.WARNING

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        if not source.in_sim_package:
            return
        tables = _literal_key_tables(source)
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORD_METHODS
                and _is_stats_receiver(node.func.value)
                and node.args
            ):
                self._check_key(source, ctx, node, node.args[0], tables)

    def _check_key(
        self,
        source: SourceFile,
        ctx: ProjectContext,
        call: ast.Call,
        key_node: ast.expr,
        tables: Set[str],
    ) -> None:
        if isinstance(key_node, ast.Constant) and isinstance(key_node.value, str):
            return
        if (
            isinstance(key_node, ast.Subscript)
            and isinstance(key_node.value, ast.Name)
            and key_node.value.id in tables
        ):
            return
        if isinstance(key_node, ast.Attribute) and key_node.attr.startswith("_key_"):
            return
        if isinstance(key_node, ast.JoinedStr):
            ctx.emit(
                self, source, call,
                "f-string stats key on a simulation path: the key set "
                "cannot be audited statically and the f-string is built "
                "per event; prefer a precomputed literal-key table",
            )
            return
        ctx.emit(
            self, source, call,
            "non-literal stats key on a simulation path: dynamic keys "
            "defeat static key auditing; use a string literal",
        )
