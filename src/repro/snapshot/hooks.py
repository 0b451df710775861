"""Run-time checkpoint triggers.

A :class:`Checkpointer` is armed on a :class:`repro.sim.system.System`
before ``run``/``resume_run`` and is polled once per executed operation
(``system.steps_total``) from inside the scheduler loop — *after* the
core has stepped and been re-queued, which is the one point where the
entire state graph is between operations and the heap can be rebuilt
bit-identically on restore.  It fires on three conditions:

* **cut points** — an explicit, sorted list of absolute step counts;
  each writes a separate ``cut_<steps>.ckpt`` (golden bit-identity tests
  restore from these),
* **periodic** — every N steps, refreshing the rolling ``latest.ckpt``,
* **pending signal** — the :class:`repro.snapshot.signals.SignalGuard`
  flag; writes one final ``latest.ckpt`` and raises
  :class:`repro.common.errors.CheckpointInterrupt` to unwind the run.

A ``heartbeat_hook`` callback, when given, is invoked with the current
step count at most once per ``heartbeat_seconds`` and after every
periodic checkpoint — the sweep worker uses it to stream heartbeats
(which extend its job's lease) to the ``sweepd`` server over its socket
(the hook must swallow its own I/O errors; a flaky network must not
kill the simulation).  Wall-clock use is fine here: this package is
deliberately outside the simulator packages the RL001 determinism lint
patrols, and nothing the heartbeat does feeds back into simulated
state.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.common.errors import CheckpointInterrupt, PersistError
from repro.snapshot.checkpoint import (
    DEFAULT_KEEP_GENERATIONS,
    LATEST_NAME,
    save_checkpoint,
)
from repro.snapshot.signals import SignalGuard

#: Steps between heartbeat wall-clock reads (a time() syscall per step
#: would be measurable on the hot path; one per mask window is not).
_HEARTBEAT_MASK = 0xFF


class Checkpointer:
    """Writes checkpoints for one run into one directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        every_ops: int = 0,
        cut_points: Sequence[int] = (),
        heartbeat_seconds: float = 0.0,
        signals: Optional[SignalGuard] = None,
        heartbeat_hook: Optional[Callable[[int], None]] = None,
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
    ):
        self.directory = Path(directory)
        self.every_ops = int(every_ops)
        self.cut_points: List[int] = sorted(int(c) for c in cut_points)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.heartbeat_hook = heartbeat_hook
        self.signals = signals
        self.keep_generations = int(keep_generations)
        self.latest_path = self.directory / LATEST_NAME
        #: Paths written, in order (cut files and latest refreshes).
        self.written: List[Path] = []
        #: Writes that failed at the storage layer: (path, PersistError).
        #: A failed periodic refresh loses durability of the newest state,
        #: not correctness — the run continues and the next refresh (or a
        #: preserved generation) covers recovery.
        self.write_failures: List[tuple] = []
        self._next_due: Optional[int] = None
        self._next_heartbeat = 0.0
        self._finalized = False

    def arm(self, system) -> None:
        """Attach to *system* and schedule the first periodic write."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.every_ops > 0:
            self._next_due = system.steps_total + self.every_ops
        if self.heartbeat_seconds > 0:
            self._heartbeat(system.steps_total)
        system.checkpointer = self

    def _heartbeat(self, steps: int) -> None:
        self._next_heartbeat = time.monotonic() + self.heartbeat_seconds
        if self.heartbeat_hook is not None:
            self.heartbeat_hook(steps)

    def _write(self, system, path: Path) -> Optional[Path]:
        rotate = self.keep_generations if path == self.latest_path else 0
        try:
            final = save_checkpoint(system, path, keep_generations=rotate)
        except PersistError as exc:
            # Storage said no (ENOSPC, EIO, failed fsync).  The previous
            # file is intact; losing one refresh must not kill the run.
            self.write_failures.append((path, exc))
            return None
        self.written.append(final)
        return final

    def next_trigger_step(self) -> Optional[int]:
        """The next *deterministic* step count at which :meth:`on_step`
        would write a checkpoint, or None when no cut point or periodic
        write is scheduled.

        The batched engine plans its drains around this: it runs at full
        speed up to the returned step, flushes core-local state, and
        polls :meth:`on_step` exactly there — so cut files and periodic
        ``latest.ckpt`` refreshes land on the identical steps the scalar
        engine's per-step polling produces.  (Signal polling has no
        deterministic step; the engine bounds its latency with a fixed
        poll interval instead.)
        """
        cut = self.cut_points[0] if self.cut_points else None
        due = self._next_due
        if cut is None:
            return due
        if due is None:
            return cut
        return min(cut, due)

    def on_step(self, system) -> None:
        """Poll triggers; called once per executed op at the safe point."""
        steps = system.steps_total
        signals = self.signals
        if signals is not None and signals.pending:
            self._finalize(system, signals.signum)
        while self.cut_points and steps >= self.cut_points[0]:
            cut = self.cut_points.pop(0)
            self._write(system, self.directory / f"cut_{cut}.ckpt")
        if self._next_due is not None and steps >= self._next_due:
            self._next_due = steps + self.every_ops
            self._write(system, self.latest_path)
            # A checkpoint is progress worth reporting at once; it also
            # puts a heartbeat on a deterministic step.
            if self.heartbeat_seconds > 0:
                self._heartbeat(steps)
        elif self.heartbeat_seconds > 0 and steps & _HEARTBEAT_MASK == 0:
            if time.monotonic() >= self._next_heartbeat:
                self._heartbeat(steps)

    def _finalize(self, system, signum) -> None:
        if self._finalized:  # second poll after an already-handled signal
            raise CheckpointInterrupt(path=self.latest_path, signum=signum)
        self._finalized = True
        path = self._write(system, self.latest_path)
        # path is None when the final write failed at the storage layer;
        # CheckpointInterrupt documents that contract.
        raise CheckpointInterrupt(path=path, signum=signum)
