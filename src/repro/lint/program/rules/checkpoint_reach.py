"""RL103 — snapshot safety, proved over what a checkpoint can reach.

Checkpoint/restore (``repro.snapshot``, docs/CHECKPOINTS.md) pickles the
entire live ``System`` graph.  Most simulator state is plain data; what
breaks a checkpoint is a class quietly stashing a *process-local* object
on ``self`` — a lambda or closure, the result of a closure-factory
method, an open file, a threading primitive, a live socket or an I/O
selector (:func:`~repro.lint.program.extract.classify_unsafe_value`).
Such failures surface only when a checkpoint is written, often hours
into the very sweep it was meant to protect.

This rule checks every class **transitively reachable from ``System``**
through attribute assignments, container population, class-table
dispatch, factory-method returns, type annotations and subclassing, and
flags each unsafe assignment with the chain that witnesses the class's
reachability.  The one escape hatch is owning the encoding: a class
defining ``__getstate__`` / ``__reduce__`` / ``__reduce_ex__`` is
trusted, and the traversal stops there.  Nothing is detached around a
checkpoint, so every other reachable class pickles as it stands.

When the program defines no root class the rule is silent — fixture
projects opt in by defining a ``System``.
"""

from __future__ import annotations

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel


@register_rule
class CheckpointReachRule(ProgramRule):
    """RL103: the object graph under ``System`` must checkpoint cleanly."""

    rule_id = "RL103"
    name = "program-checkpoint-reachability"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for symbol in sorted(model.reachable):
            if model.class_is_snapshot_handled(symbol):
                continue
            cls = model.table.class_named(symbol)
            relpath = model.relpath_of(symbol)
            if cls is None or relpath is None:
                continue
            via = model.reachable[symbol]
            for unsafe in cls.unsafe:
                self.emit_at(
                    ctx, relpath, unsafe.line, unsafe.col,
                    f"{cls.name}.{unsafe.method} stores {unsafe.problem} on "
                    f"self, and {cls.name} is checkpoint-reachable "
                    f"({via}) — snapshotting System would fail or "
                    "silently capture stale state; move it off the instance, "
                    "rebuild it after restore, or define __getstate__",
                    severity=Severity.ERROR,
                )
