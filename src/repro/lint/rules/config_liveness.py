"""RL003 — config liveness: every knob must steer something.

A dataclass field in ``common/config.py`` that nothing reads is worse than
dead code: it looks like a tunable (an ablation author will flip it and
re-run a figure) while actually steering nothing.  Conversely, an attribute
read of a field no config class declares is a crash waiting for the first
code path that reaches it — or, with ``getattr`` defaults upstream, a
silently ignored setting.

The rule parses every ``@dataclass`` in ``common/config.py``, then

* marks a field **dead** when its name never appears as an attribute load
  anywhere in the project (the check is name-based and therefore
  conservative: a same-named attribute on any object keeps the knob
  alive);
* tracks variables/attributes whose type is statically known to be a
  config class (``config.pageseer`` chains, ``self.ps = config.pageseer``
  aliases, annotated parameters) and flags reads of **undeclared fields**
  on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.lint.engine import (
    ProjectContext,
    Rule,
    Severity,
    SourceFile,
    register_rule,
)
from repro.lint.rules.hot_path import is_dataclass

#: Names assumed to hold a SystemConfig wherever they appear.
_ROOT_CONFIG_NAMES = ("config", "cfg")

_CONFIG_FILE_SUFFIX = "common/config.py"


@dataclass
class ConfigClass:
    """One ``@dataclass`` parsed out of ``common/config.py``."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    #: field name -> (AnnAssign node, annotation class name or None).
    fields: Dict[str, Tuple[ast.AnnAssign, Optional[str]]] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)

    def declares(self, attr: str) -> bool:
        return (
            attr in self.fields
            or attr in self.properties
            or attr in self.methods
            or attr.startswith("__")
        )


def _annotation_class(annotation: ast.AST) -> Optional[str]:
    """The class name an annotation refers to, unwrapping Optional/str."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip("\"'")
    if isinstance(annotation, ast.Subscript):  # Optional[X] / list[X]
        if isinstance(annotation.slice, ast.Tuple) and annotation.slice.elts:
            return _annotation_class(annotation.slice.elts[0])
        return _annotation_class(annotation.slice)
    return None


@register_rule
class ConfigLivenessRule(Rule):
    """RL003: dead config knobs and reads of undeclared config fields."""

    rule_id = "RL003"
    name = "config-liveness"
    default_severity = Severity.WARNING

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        """All work happens in :meth:`finalize` (needs the full file set)."""

    # -- model building ----------------------------------------------------
    def _parse_config_classes(self, source: SourceFile) -> Dict[str, ConfigClass]:
        classes: Dict[str, ConfigClass] = {}
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef) or not is_dataclass(node):
                continue
            info = ConfigClass(name=node.name, source=source, node=node)
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    info.fields[statement.target.id] = (
                        statement,
                        _annotation_class(statement.annotation),
                    )
                elif isinstance(statement, ast.FunctionDef):
                    decorators = {
                        d.id for d in statement.decorator_list if isinstance(d, ast.Name)
                    }
                    if "property" in decorators:
                        info.properties.add(statement.name)
                    else:
                        info.methods.add(statement.name)
            classes[node.name] = info
        return classes

    @staticmethod
    def _global_attribute_loads(ctx: ProjectContext) -> Set[str]:
        loads: Set[str] = set()
        for source in ctx.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
        return loads

    # -- typed receiver resolution ----------------------------------------
    def _field_type(
        self, classes: Dict[str, ConfigClass], class_name: str, attr: str
    ) -> Optional[str]:
        info = classes.get(class_name)
        if info is None:
            return None
        entry = info.fields.get(attr)
        if entry is None:
            return None
        annotated = entry[1]
        return annotated if annotated in classes else None

    def _resolve(
        self,
        expr: ast.AST,
        classes: Dict[str, ConfigClass],
        aliases: Dict[str, str],
    ) -> Optional[str]:
        """The config class *expr* statically evaluates to, if known."""
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            if expr.id in _ROOT_CONFIG_NAMES and "SystemConfig" in classes:
                return "SystemConfig"
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return aliases.get(f"self.{expr.attr}")
            base = self._resolve(expr.value, classes, aliases)
            if base is None:
                return None
            return self._field_type(classes, base, expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in classes:
                return name
            if name in ("replace",) and expr.args:
                return self._resolve(expr.args[0], classes, aliases)
        return None

    def _build_aliases(
        self, source: SourceFile, classes: Dict[str, ConfigClass]
    ) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in list(node.args.args) + list(node.args.kwonlyargs):
                    if arg.annotation is None:
                        continue
                    annotated = _annotation_class(arg.annotation)
                    if annotated in classes:
                        aliases[arg.arg] = annotated
        # Two passes so `self.ps = config.pageseer` chains resolve even when
        # ast.walk visits uses before definitions.
        for _ in range(2):
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Assign):
                    continue
                resolved = self._resolve(node.value, classes, aliases)
                if resolved is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = resolved
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        aliases[f"self.{target.attr}"] = resolved
        return aliases

    # -- the checks --------------------------------------------------------
    def finalize(self, ctx: ProjectContext) -> None:
        config_source = next(
            (s for s in ctx.files if s.relpath.endswith(_CONFIG_FILE_SUFFIX)), None
        )
        if config_source is None:
            return
        classes = self._parse_config_classes(config_source)
        if not classes:
            return

        for source in ctx.files:
            aliases = self._build_aliases(source, classes)
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                ):
                    continue
                base = self._resolve(node.value, classes, aliases)
                if base is None:
                    continue
                info = classes[base]
                if not info.declares(node.attr):
                    ctx.emit(
                        self, source, node,
                        f"read of undeclared field {base}.{node.attr}: no "
                        f"such field/property on {base} in common/config.py "
                        "— a typo here crashes (or is silently defaulted) "
                        "at run time",
                    )

        loads = self._global_attribute_loads(ctx)
        for class_name, info in sorted(classes.items()):
            for field_name, (node, _) in sorted(info.fields.items()):
                if field_name in loads:
                    continue
                ctx.emit(
                    self, info.source, node,
                    f"dead config knob {class_name}.{field_name}: declared "
                    "in common/config.py but never read anywhere — wire it "
                    "into the model or delete it",
                )
