"""Micro-benchmark: whole-program analyzer cold vs warm runtime.

CI runs ``repro lint`` on every push, so the analyzer's cost
is a direct tax on iteration speed.  This bench pins two budgets:

* a **cold** run (parse + extract + propagate for the whole repo) must
  stay under the CI timing budget;
* a **warm** run (facts served from the content-hash cache) must beat
  the cold run — if it doesn't, the cache got broken or the
  whole-program propagation phase grew into the new bottleneck.

Budgets are deliberately loose (CI machines are slow and shared); the
reported numbers, not the thresholds, are the regression signal to watch
in the bench summary.
"""

import time
from pathlib import Path

from repro.lint.engine import LintEngine

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The CI timing budget for a cold whole-program run, in seconds.
COLD_BUDGET_S = 60.0


def _timed_program_run(cache_path):
    start = time.perf_counter()
    engine = LintEngine(root=REPO_ROOT, cache_path=cache_path)
    report = engine.run([REPO_ROOT / "src" / "repro"])
    elapsed = time.perf_counter() - start
    assert report.parse_errors == []
    return elapsed, engine.last_program_model


def test_analyzer_cold_vs_warm_runtime(tmp_path):
    cache_path = tmp_path / "lint-cache.json"
    cold_s, cold_model = _timed_program_run(cache_path)
    warm_s, warm_model = _timed_program_run(cache_path)

    assert cold_model.cache_hits == 0
    assert warm_model.cache_misses == 0, "cache missed on an unchanged tree"
    assert cold_s < COLD_BUDGET_S, (
        f"cold whole-program lint took {cold_s:.1f}s "
        f"(budget {COLD_BUDGET_S:.0f}s) — a rule or the extractor regressed"
    )
    # Warm must actually be warmer; 1.0x allows scheduler noise on tiny
    # absolute times but still catches a cache that silently stopped
    # working (which re-parses and re-extracts every file).
    assert warm_s < cold_s * 1.0, (
        f"warm run ({warm_s:.2f}s) is not faster than cold ({cold_s:.2f}s) "
        "— the facts cache is not being used"
    )
    print(
        f"\nrepro lint: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
        f"({cold_model.cache_misses} files, "
        f"{len(cold_model.table.functions)} functions, "
        f"{len(cold_model.graph.edges)} call edges)"
    )
