"""The simulation sanitizer: runtime correctness checking for the model.

The paper's figures are only as trustworthy as the simulator's remap and
swap bookkeeping, so this package provides three complementary layers:

* :mod:`repro.check.invariants` — pluggable structural checkers (PRT
  bijectivity, frame exclusivity, swap conservation, counter
  monotonicity, stats sanity, the baselines' slot maps) swept
  periodically during a run;
* :mod:`repro.check.shadow` — a zero-timing functional oracle that
  replays the swap-event stream and cross-checks every access's resolved
  location against the timed model;
* :mod:`repro.check.golden` — a golden-run digest harness pinning full
  ``RunMetrics`` for a (scheme x workload x variant) matrix, so
  behavioural drift fails tests with a metrics diff.

Enable via ``CheckConfig`` (``repro.common.config``), the ``--check`` /
``--check-level`` CLI flags, or ``build_system``'s config mutator; at the
default ``off`` level nothing is constructed and the hot path is
untouched.
"""

from repro.check.invariants import (
    CounterMonotonicityChecker,
    FrameExclusivityChecker,
    InvariantChecker,
    PrtBijectivityChecker,
    SlotMapChecker,
    StatsSanityChecker,
    SwapConservationChecker,
    Violation,
    build_checkers,
)
from repro.check.manager import CheckManager, CheckReport
from repro.check.shadow import ShadowPageOracle

__all__ = [
    "CheckManager",
    "CheckReport",
    "CounterMonotonicityChecker",
    "FrameExclusivityChecker",
    "InvariantChecker",
    "PrtBijectivityChecker",
    "ShadowPageOracle",
    "SlotMapChecker",
    "StatsSanityChecker",
    "SwapConservationChecker",
    "Violation",
    "build_checkers",
]
