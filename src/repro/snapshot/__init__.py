"""Crash-safe checkpoint/restore for live simulations.

See ``docs/CHECKPOINTS.md`` for the file format, the determinism
guarantee (restore is bit-identical to an uninterrupted run), and the
sweep fleet built on top of this package.
"""

from repro.common.errors import (
    CheckpointError,
    CheckpointInterrupt,
    CorruptCheckpointError,
)
from repro.snapshot.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    DEFAULT_KEEP_GENERATIONS,
    LATEST_NAME,
    generation_files,
    load_checkpoint,
    load_checkpoint_with_fallback,
    read_checkpoint_header,
    save_checkpoint,
    verify_checkpoint,
)
from repro.snapshot.hooks import Checkpointer
from repro.snapshot.signals import EXIT_CHECKPOINTED, SignalGuard
from repro.snapshot.stream import ReplayStream

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointInterrupt",
    "Checkpointer",
    "CorruptCheckpointError",
    "DEFAULT_KEEP_GENERATIONS",
    "EXIT_CHECKPOINTED",
    "LATEST_NAME",
    "ReplayStream",
    "SignalGuard",
    "generation_files",
    "load_checkpoint",
    "load_checkpoint_with_fallback",
    "read_checkpoint_header",
    "save_checkpoint",
    "verify_checkpoint",
]
