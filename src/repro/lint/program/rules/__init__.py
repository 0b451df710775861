"""The RL1xx whole-program rule family (imported for registration)."""

from repro.lint.program.rules import (  # noqa: F401
    checkpoint_reach,
    determinism_taint,
    persist_reach,
    stats_liveness,
)
