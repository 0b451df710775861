"""Hierarchical statistics counters.

Every simulator component records its activity into a shared
:class:`StatsRegistry`.  Counters are created lazily, live under
slash-separated paths (``"hmc/prtc/hits"``), and can be snapshot or diffed,
which the experiment harness uses to separate warm-up from measurement.

Per-event record sites on simulator objects write the registry's live
dicts directly — ``stats._counters[key] += 1.0`` for a counter, and
``_sums``/``_counts``/``_maxima`` as :meth:`StatsRegistry.observe` does
for an observation — with a literal key.  :meth:`StatsRegistry.reset`
clears those dicts in place, so a reference taken before a reset stays
valid after it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable copy of a registry's full state at one instant.

    Snapshots support exact warm-up separation: ``later.diff(earlier)``
    returns the activity that happened strictly between the two snapshots
    (counters, sums, and counts subtract exactly; maxima are not
    subtractable, so a diff carries the *later* maxima).  Diffs compose:
    ``c.diff(a) == c.diff(b).merged(b.diff(a))`` for any three snapshots
    taken in order a, b, c.
    """

    counters: Mapping[str, float] = field(default_factory=dict)
    sums: Mapping[str, float] = field(default_factory=dict)
    counts: Mapping[str, int] = field(default_factory=dict)
    maxima: Mapping[str, float] = field(default_factory=dict)

    def mean(self, name: str, default: float = 0.0) -> float:
        count = self.counts.get(name, 0)
        if count == 0:
            return default
        return self.sums.get(name, 0.0) / count

    def maximum(self, name: str, default: float = 0.0) -> float:
        return self.maxima.get(name, default)

    def get(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def diff(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """The activity between *earlier* and this snapshot, exactly."""

        def subtract(later: Mapping, early: Mapping) -> Dict:
            out = {}
            for name, value in later.items():
                delta = value - early.get(name, 0)
                if delta != 0:
                    out[name] = delta
            return out

        return StatsSnapshot(
            counters=subtract(self.counters, earlier.counters),
            sums=subtract(self.sums, earlier.sums),
            counts=subtract(self.counts, earlier.counts),
            maxima=dict(self.maxima),
        )

    def merged(self, other: "StatsSnapshot") -> "StatsSnapshot":
        """Combine two snapshots/diffs (sums add, maxima take the max)."""

        def add(a: Mapping, b: Mapping) -> Dict:
            out = dict(a)
            for name, value in b.items():
                out[name] = out.get(name, 0) + value
            return out

        maxima = dict(self.maxima)
        for name, value in other.maxima.items():
            if name not in maxima or value > maxima[name]:
                maxima[name] = value
        return StatsSnapshot(
            counters=add(self.counters, other.counters),
            sums=add(self.sums, other.sums),
            counts=add(self.counts, other.counts),
            maxima=maxima,
        )


class StatsRegistry:
    """A flat namespace of integer/float counters and value accumulators."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._sums: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)
        self._maxima: Dict[str, float] = {}

    # -- counters ---------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self._counters[name] += amount

    def get(self, name: str, default: float = 0.0) -> float:
        """Return the value of counter *name* (``default`` if never touched)."""
        return self._counters.get(name, default)

    # -- value accumulators (for averages) --------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation of a value (for averaging)."""
        self._sums[name] += value
        self._counts[name] += 1
        previous = self._maxima.get(name)
        if previous is None or value > previous:
            self._maxima[name] = value

    def mean(self, name: str, default: float = 0.0) -> float:
        """Return the mean of all observations of *name*."""
        count = self._counts.get(name, 0)
        if count == 0:
            return default
        return self._sums[name] / count

    def total(self, name: str) -> float:
        """Return the sum of all observations of *name*."""
        return self._sums.get(name, 0.0)

    def count(self, name: str) -> int:
        """Return how many observations of *name* were recorded."""
        return self._counts.get(name, 0)

    def maximum(self, name: str, default: float = 0.0) -> float:
        """Return the largest observation of *name*."""
        return self._maxima.get(name, default)

    # -- bookkeeping -------------------------------------------------------
    def names(self) -> Iterable[str]:
        """Return all counter names touched so far."""
        seen = set(self._counters) | set(self._sums)
        return sorted(seen)

    def snapshot(self) -> Mapping[str, float]:
        """Return a copy of all plain counters."""
        return dict(self._counters)

    def snapshot_full(self) -> StatsSnapshot:
        """Return an immutable copy of the complete registry state."""
        return StatsSnapshot(
            counters=dict(self._counters),
            sums=dict(self._sums),
            counts=dict(self._counts),
            maxima=dict(self._maxima),
        )

    def since(self, earlier: StatsSnapshot) -> StatsSnapshot:
        """The activity recorded since *earlier* was taken."""
        return self.snapshot_full().diff(earlier)

    def reset(self) -> None:
        """Zero every counter and accumulator (used at end of warm-up)."""
        self._counters.clear()
        self._sums.clear()
        self._counts.clear()
        self._maxima.clear()

    def merged_with(self, other: "StatsRegistry") -> "StatsRegistry":
        """Return a new registry combining this one and *other*."""
        merged = StatsRegistry()
        for source in (self, other):
            for name, value in source._counters.items():
                merged._counters[name] += value
            for name, value in source._sums.items():
                merged._sums[name] += value
            for name, value in source._counts.items():
                merged._counts[name] += value
            for name, value in source._maxima.items():
                if name not in merged._maxima or value > merged._maxima[name]:
                    merged._maxima[name] = value
        return merged

    def as_dict(self) -> Dict[str, float]:
        """Return counters plus derived means in one flat dictionary."""
        out: Dict[str, float] = dict(self._counters)
        for name in self._sums:
            out[f"{name}/mean"] = self.mean(name)
            out[f"{name}/total"] = self.total(name)
            out[f"{name}/count"] = float(self.count(name))
        return out
