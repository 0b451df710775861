"""The lint rule engine: file loading, rule dispatch, suppressions.

The engine parses every target file once, builds the whole-program model
(:mod:`repro.lint.program`) over those files plus the rest of
``src/repro``, hands each registered rule a per-file ``collect`` pass and
a whole-project ``finalize`` pass, and then filters the emitted findings
through inline suppressions, the one way to accept a finding.

Rules are plain classes registered with :func:`register_rule`; each one
owns a rule id (``RL001`` ...), a default severity, and whatever state it
needs to accumulate across files.  Per-file rules (RL001 and RL003–RL005)
read the AST in ``collect``; whole-program rules (RL101–RL105) read the
model in ``finalize``, and so does RL002, which reads the extractor's
record sites and takes only the ``# repro-hot`` marks from the AST.
"""

from __future__ import annotations

import ast
import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Type, Union

if TYPE_CHECKING:
    from repro.lint.program.model import ProgramModel

#: Path segments that mark simulation-critical code: determinism and
#: stats-discipline rules apply only inside these packages.
SIM_PACKAGES = frozenset(
    {"sim", "mem", "core", "vm", "cache", "baselines"}
)

#: Directory names never descended into while collecting files.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro_cache", "repro.egg-info"})

_PRAGMA = re.compile(r"#\s*repro-lint:\s*(disable|disable-file)=([A-Za-z0-9_,\s]+)")


class Severity(enum.IntEnum):
    """Finding severities; ``WARNING`` and above fail the lint run."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a file position."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.label}] {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceFile:
    """One parsed target file plus its suppression pragmas."""

    def __init__(self, path: Path, relpath: str, text: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        #: line number -> set of rule ids disabled on that line ("all" ok).
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: rule ids disabled for the whole file.
        self.file_suppressions: Set[str] = set()
        self._parse_pragmas()

    def _parse_pragmas(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            scope, names = match.groups()
            rules = {name.strip() for name in names.split(",") if name.strip()}
            if scope == "disable-file":
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True if *rule* is disabled at *line* by a pragma.

        A pragma suppresses findings on its own line; a pragma on a
        comment-only line also suppresses findings on the next line.
        """
        if self._matches(self.file_suppressions, rule):
            return True
        if self._matches(self.line_suppressions.get(line, ()), rule):
            return True
        above = self.line_suppressions.get(line - 1)
        if above and self._matches(above, rule):
            text = self.lines[line - 2].strip() if line - 2 < len(self.lines) else ""
            if text.startswith("#"):
                return True
        return False

    @staticmethod
    def _matches(rules: Iterable[str], rule: str) -> bool:
        return any(name in ("all", rule) for name in rules)

    @property
    def in_sim_package(self) -> bool:
        return any(part in SIM_PACKAGES for part in Path(self.relpath).parts)


class ProjectContext:
    """Shared state handed to every rule: target files, model and sink."""

    def __init__(
        self, root: Path, files: Sequence[SourceFile], program_model: "ProgramModel"
    ):
        self.root = root
        self.files = list(files)
        #: Exact relpath -> linted file, for suppressions and program rules.
        self.files_by_relpath: Dict[str, SourceFile] = {
            source.relpath: source for source in self.files
        }
        self.findings: List[Finding] = []
        #: The whole-program model the RL1xx rules interpret.
        self.program_model = program_model

    def emit(
        self,
        rule: "Rule",
        source: SourceFile,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule.rule_id,
                severity=severity if severity is not None else rule.default_severity,
                path=source.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`name`, and
    :attr:`default_severity`, then override :meth:`collect` (called once
    per file) and optionally :meth:`finalize` (called once after every
    file was collected — the place for cross-file findings).
    """

    rule_id: str = "RL000"
    name: str = "abstract"
    default_severity: Severity = Severity.WARNING

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        raise NotImplementedError

    def finalize(self, ctx: ProjectContext) -> None:
        """Emit findings that need the whole project; default: nothing."""


_REGISTRY: List[Type[Rule]] = []


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    _REGISTRY.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule (import-time registry)."""
    # Importing the rule packages populates the registry on first use.
    from repro.lint import rules  # noqa: F401
    from repro.lint.program import rules as program_rules  # noqa: F401

    return [cls() for cls in _REGISTRY]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def failing(self) -> List[Finding]:
        return [f for f in self.findings if f.severity >= Severity.WARNING]

    @property
    def exit_code(self) -> int:
        return 1 if self.failing or self.parse_errors else 0

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"parse error: {message}" for message in self.parse_errors)
        failing = len(self.failing)
        info = len(self.findings) - failing
        lines.append(
            f"checked {self.files_checked} file(s): "
            f"{failing} failing finding(s), {info} informational, "
            f"{self.suppressed} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "failing": len(self.failing),
                "informational": len(self.findings) - len(self.failing),
                "suppressed": self.suppressed,
                "findings": [f.as_dict() for f in self.findings],
                "parse_errors": list(self.parse_errors),
                "exit_code": self.exit_code,
            },
            indent=2,
            sort_keys=True,
        )


class LintEngine:
    """Runs a rule set over a file tree and returns a :class:`LintReport`."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        root: Optional[Path] = None,
        cache_path: Optional[Path] = None,
    ):
        self.rules = list(rules) if rules is not None else all_rules()
        self.root = (root or Path.cwd()).resolve()
        #: Facts-cache location; None disables caching.
        self.cache_path = cache_path
        #: The last run's program model (for --graph dumps and tests).
        self.last_program_model: Optional["ProgramModel"] = None

    # -- file collection ---------------------------------------------------
    def collect_files(self, paths: Sequence[Union[str, Path]]) -> List[Path]:
        out: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if not path.is_absolute():
                path = self.root / path
            if path.is_dir():
                out.extend(
                    candidate
                    for candidate in sorted(path.rglob("*.py"))
                    if not _SKIP_DIRS.intersection(candidate.parts)
                )
            elif path.suffix == ".py":
                out.append(path)
        # De-duplicate while keeping deterministic order.
        return sorted(set(out))

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- execution ---------------------------------------------------------
    def run(self, paths: Sequence[Union[str, Path]]) -> LintReport:
        from repro.lint.program.cache import AnalysisCache
        from repro.lint.program.model import build_program_model

        report = LintReport()
        files: List[SourceFile] = []
        for path in self.collect_files(paths):
            try:
                text = path.read_text(encoding="utf-8")
                tree = ast.parse(text, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                report.parse_errors.append(f"{self._relpath(path)}: {exc}")
                continue
            files.append(SourceFile(path, self._relpath(path), text, tree))
        report.files_checked = len(files)

        cache = AnalysisCache(self.cache_path) if self.cache_path else None
        model = build_program_model(self.root, files, cache)
        self.last_program_model = model
        ctx = ProjectContext(self.root, files, model)
        for rule in self.rules:
            for source in ctx.files:
                rule.collect(source, ctx)
        for rule in self.rules:
            rule.finalize(ctx)

        for finding in sorted(
            ctx.findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            source = ctx.files_by_relpath.get(finding.path)
            if source is not None and source.is_suppressed(finding.rule, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)
        return report


def lint_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    cache_path: Optional[Path] = None,
) -> LintReport:
    """Convenience wrapper: lint *paths* with the default rule set."""
    return LintEngine(rules=rules, root=root, cache_path=cache_path).run(paths)
