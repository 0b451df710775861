"""Rule registry: importing this package registers every per-file rule."""

from repro.lint.rules import (
    config_liveness,
    determinism,
    hot_path,
    stats_keys,
    units,
)

__all__ = [
    "determinism",
    "stats_keys",
    "config_liveness",
    "units",
    "hot_path",
]
