"""The golden-run digest harness (the sanitizer's regression half).

A *golden* pins the complete :class:`repro.sim.metrics.RunMetrics` (minus
``raw``) of one small (scheme, workload, variant) run, plus a SHA-256
digest of its canonical JSON form, into ``tests/golden/*.json``.  The
golden regression tests recompute each run and compare field by field, so
any behavioural drift — an accidental model change, a nondeterminism
regression, a broken scheme — fails as a readable metrics diff instead of
silently changing every figure.

Golden runs execute with the sanitizer at level ``full``, so regenerating
or verifying goldens also proves each pinned run is invariant-clean.

Regenerate after an intentional model change with::

    PYTHONPATH=src python -m repro golden --update
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.metrics import RunMetrics

#: The pinned matrix: every scheme the paper evaluates head-to-head, on
#: two small workloads, with and without MMU hints.
GOLDEN_SCHEMES = ("pageseer", "pom", "mempod")
GOLDEN_WORKLOADS = ("lbmx4", "streamx4")
GOLDEN_VARIANTS = ("default", "nohints")

#: Sizing shared by every golden run: small enough for CI, large enough
#: that all three schemes actually swap.
GOLDEN_SIZING = {"scale": 1024, "measure_ops": 400, "warmup_ops": 400, "seed": 0}

def golden_matrix() -> List[Tuple[str, str, str]]:
    """Every (scheme, workload, variant) triple the goldens pin."""
    return [
        (scheme, workload, variant)
        for scheme in GOLDEN_SCHEMES
        for workload in GOLDEN_WORKLOADS
        for variant in GOLDEN_VARIANTS
    ]


def golden_filename(scheme: str, workload: str, variant: str) -> str:
    return f"{scheme}_{workload}_{variant}.json"


def default_golden_dir() -> Path:
    """``tests/golden`` relative to the current directory (the repo root)."""
    return Path("tests") / "golden"


def payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of *payload*."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_golden_entry(scheme: str, workload: str, variant: str) -> RunMetrics:
    """Execute one golden run, sanitizer at level ``full``."""
    import dataclasses as dc

    from repro.common.config import CheckConfig
    from repro.experiments.runner import VARIANTS
    from repro.sim.system import build_system
    from repro.workloads import workload_by_name

    variant_mutator = VARIANTS[variant]

    def mutate(config):
        config = variant_mutator(config)
        return dc.replace(config, check=CheckConfig(level="full"))

    system = build_system(
        scheme,
        workload_by_name(workload),
        scale=GOLDEN_SIZING["scale"],
        seed=GOLDEN_SIZING["seed"],
        config_mutator=mutate,
    )
    return system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])


def compare_payloads(
    expected: Dict[str, object], actual: Dict[str, object]
) -> List[str]:
    """Field-by-field differences, formatted for a loud test failure."""
    diffs: List[str] = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name, "<missing>")
        got = actual.get(name, "<missing>")
        if want != got:
            diffs.append(f"{name}: expected {want!r}, got {got!r}")
    return diffs


def write_golden(
    directory: Path, scheme: str, workload: str, variant: str
) -> Path:
    """Run one golden entry and pin it to disk; returns the file path."""
    metrics = run_golden_entry(scheme, workload, variant)
    payload = metrics.payload()
    document = {
        "scheme": scheme,
        "workload": workload,
        "variant": variant,
        "sizing": dict(GOLDEN_SIZING),
        "digest": payload_digest(payload),
        "metrics": payload,
    }
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / golden_filename(scheme, workload, variant)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_golden(
    directory: Path, scheme: str, workload: str, variant: str
) -> Optional[Dict[str, object]]:
    path = directory / golden_filename(scheme, workload, variant)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def verify_golden(
    directory: Path, scheme: str, workload: str, variant: str
) -> List[str]:
    """Recompute one entry and diff it against its pinned golden.

    Returns a list of human-readable problems; empty means the run still
    matches its golden exactly.
    """
    document = load_golden(directory, scheme, workload, variant)
    if document is None:
        return [
            f"missing golden file {golden_filename(scheme, workload, variant)} "
            f"(run `python -m repro golden --update`)"
        ]
    metrics = run_golden_entry(scheme, workload, variant)
    actual = metrics.payload()
    diffs = compare_payloads(document["metrics"], actual)
    actual_digest = payload_digest(actual)
    if not diffs and document.get("digest") != actual_digest:
        diffs.append(
            f"digest mismatch with identical fields (golden file edited "
            f"by hand?): pinned {document.get('digest')}, "
            f"recomputed {actual_digest}"
        )
    return diffs


def update_goldens(
    directory: Path,
    entries: Optional[Iterable[Tuple[str, str, str]]] = None,
    verbose: bool = False,
) -> List[Path]:
    """Regenerate every golden (the `python -m repro golden --update` path)."""
    written: List[Path] = []
    for scheme, workload, variant in entries or golden_matrix():
        path = write_golden(directory, scheme, workload, variant)
        if verbose:
            print(f"[golden] wrote {path}")
        written.append(path)
    return written


def verify_goldens(
    directory: Path,
    entries: Optional[Iterable[Tuple[str, str, str]]] = None,
    verbose: bool = False,
) -> Dict[Tuple[str, str, str], List[str]]:
    """Verify every golden; returns only the entries that diverged."""
    problems: Dict[Tuple[str, str, str], List[str]] = {}
    for scheme, workload, variant in entries or golden_matrix():
        diffs = verify_golden(directory, scheme, workload, variant)
        if verbose:
            status = "MISMATCH" if diffs else "ok"
            print(f"[golden] {scheme}/{workload}/{variant}: {status}")
        if diffs:
            problems[(scheme, workload, variant)] = diffs
    return problems
