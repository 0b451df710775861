"""Host-speed sampling, so host time can be read at a fixed host speed.

On a shared machine the speed of one virtual CPU moves with whatever the
neighbouring tenant runs on the same physical core: a fixed pure-Python
loop on the 2-vCPU host this benchmark was tuned on takes between 1x and
~2x its best time, switching every few seconds, and one paper job's wall
time swings by the same factor.  A reading taken before or after a pass
misses those swings, and the two vCPUs swing independently, so the
sampler runs *inside* the measured process: every ``INTERVAL_S`` of wall
time a ``SIGALRM`` handler times a short pure-Python kernel.  The
kernel's duration against ``REFERENCE_SAMPLE_S`` gives the current speed
factor, and :func:`normalized` integrates it over any interval, leaving
out the kernel's own time.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Sequence, Tuple

#: Wall time between samples.
INTERVAL_S = 0.025
#: Kernel duration at the reference speed (about its fastest in a pass on
#: the tuning host), so normalized seconds read close to uncontended ones.
REFERENCE_SAMPLE_S = 0.00025


def kernel(iterations: int = 800) -> int:
    """The sampled work: dict updates and integer arithmetic.

    It allocates a fresh dict each call and stays cache-resident, so its
    duration follows the core's speed and barely the program's own
    memory footprint (kernels reading a 12 MB table tracked the
    simulator's speed about as well, but their time grew with how much of
    the table the simulator had evicted: a program change could then
    shift the normalization).  Timed this way, one paper job's time
    varied by ~2% over eight runs, against ~11% raw.
    """
    table: dict = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 0x3FFF
        table[key] = table.get(key, 0) + 1
        acc += key % 7
    return acc


class Sampler:
    """Times :func:`kernel` every ``INTERVAL_S`` from a ``SIGALRM`` handler."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        #: (start, duration) of each sample, in clock seconds.
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = self._clock()
        kernel()
        self.samples.append((start, self._clock() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalized(samples: Sequence[Sequence[float]], start: float, end: float,
               reference: float = REFERENCE_SAMPLE_S) -> float:
    """Seconds of ``[start, end]`` at the reference speed.

    The time between the end of sample ``i`` and the start of sample
    ``i + 1`` runs at speed ``reference / duration_i``; time before the
    first sample runs at the first sample's speed.  Time spent inside
    the kernel itself counts zero.  Without samples, the raw duration.
    """
    if not samples:
        return end - start
    total = 0.0
    first_start, first_duration = samples[0]
    total += _overlap(float("-inf"), first_start, start, end) * reference / first_duration
    for index, (sample_start, duration) in enumerate(samples):
        gap_end = samples[index + 1][0] if index + 1 < len(samples) else float("inf")
        total += _overlap(sample_start + duration, gap_end, start, end) * reference / duration
    return total


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))
