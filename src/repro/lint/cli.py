"""The ``python -m repro lint`` command implementation.

Kept separate from :mod:`repro.cli` so the argparse layer stays thin and
the command is importable (and testable) as a function: ``run_lint``
returns the process exit code.  Building the parser imports nothing
else from :mod:`repro.lint`; the analyzer loads only when a lint runs.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

#: What the linter covers when no explicit path is given.
DEFAULT_LINT_PATHS = ("src/repro",)

#: The facts cache of the whole-program analyzer, relative to the root.
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_LINT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable and machine-readable)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="facts-cache file of the whole-program analyzer "
             f"(default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="force a cold run (no cache read or write)",
    )
    parser.add_argument(
        "--graph", choices=("dot",), default=None,
        help="instead of linting, dump the resolved whole-program call graph",
    )


def run_lint(
    paths: Optional[List[str]] = None,
    format: str = "text",
    root: Optional[Path] = None,
    cache: Optional[str] = None,
    no_cache: bool = False,
    graph: Optional[str] = None,
) -> int:
    """Lint *paths* and print a report; returns the process exit code."""
    from repro.lint.engine import LintEngine, Severity

    root = (root or Path.cwd()).resolve()
    cache_path: Optional[Path] = None
    if not no_cache:
        cache_path = Path(cache) if cache else Path(DEFAULT_CACHE_PATH)
        if not cache_path.is_absolute():
            cache_path = root / cache_path
    engine = LintEngine(root=root, cache_path=cache_path)
    report = engine.run(list(paths) if paths else list(DEFAULT_LINT_PATHS))

    if graph == "dot":
        assert engine.last_program_model is not None
        print(engine.last_program_model.graph.to_dot(), end="")
        return 0

    if format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
        failing = report.failing
        if failing:
            worst = max(f.severity for f in failing)
            print(
                f"lint failed ({Severity(worst).label}); fix it, or accept a "
                "deliberate construct with `# repro-lint: disable=RULE` and "
                "its reason (see docs/LINTING.md)"
            )
    return report.exit_code


def command_lint(args: argparse.Namespace) -> int:
    """argparse handler used by :mod:`repro.cli`."""
    return run_lint(
        paths=args.paths or None,
        format=args.format,
        root=Path(args.root) if args.root else None,
        cache=args.cache,
        no_cache=args.no_cache,
        graph=args.graph,
    )
