"""The Page Correlation Table, its cache, and the Filter — Section III-C2.

When a page is touched, main memory typically sees a *flurry* of LLC misses
on it, then a flurry on a *follower* page, and the same order tends to
repeat on later invocations.  The PCT records, per leader page: the misses
observed per invocation, the follower's PPN, and the follower's misses per
invocation.  The HMC holds a cache (PCTc); the full PCT lives in DRAM.

The small, fully-associative Filter table tracks the pages whose flurries
are *currently in progress*.  While a page sits in the Filter, its
current-invocation miss count accumulates; when the entry is evicted, the
history is recomputed as ``new = current + old/2`` (6-bit saturating) and
written back to the PCTc.  The Filter also records a *new follower*
candidate, because the page that follows the leader can change between
invocations; at write-back, the follower seen most recently wins if it was
observed more.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ConfigError


class PctEntry(NamedTuple):
    """One PCT/PCTc record for a leader page (Figure 6, top).

    A named tuple, not a frozen dataclass: one is built per closed
    flurry, and a tuple is built without a frozen ``__init__``'s
    ``object.__setattr__`` per field.
    """

    count: int = 0
    follower_ppn: Optional[int] = None
    follower_count: int = 0


#: The history of a page the PCT has never stored.  PctEntry is
#: immutable, so every read of an absent entry can share this instance.
EMPTY_PCT_ENTRY = PctEntry()


@dataclass(slots=True)
class FilterEntry:
    """One in-flight record (Figure 6, bottom)."""

    page: int
    pid: int
    #: History loaded from the PCTc when the flurry began.
    base: PctEntry
    #: LLC misses observed on the leader in the current invocation.
    misses: int = 0
    #: Misses observed on the remembered follower in this invocation.
    follower_misses: int = 0
    #: Candidate replacement follower and its observed misses.
    new_follower_ppn: Optional[int] = None
    new_follower_misses: int = 0


@dataclass(frozen=True, slots=True)
class CorrelationTrigger:
    """A swap opportunity the PCT machinery noticed."""

    page: int
    #: True when the trigger is for the follower of the accessed page.
    is_follower: bool


class PageCorrelationTable:
    """The full PCT, resident in DRAM (7 MB at Table II scale)."""

    def __init__(self) -> None:
        self._entries: Dict[int, PctEntry] = {}

    def read(self, page: int) -> PctEntry:
        return self._entries.get(page, EMPTY_PCT_ENTRY)

    def write(self, page: int, entry: PctEntry) -> None:
        self._entries[page] = entry

    def entries(self) -> List[Tuple[int, PctEntry]]:
        """All stored (page, entry) pairs (checker introspection)."""
        return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)


class PctCache:
    """The PCTc: LRU cache of PCT entries with per-entry change bits."""

    def __init__(self, entries: int, ways: int, latency_cycles: int):
        if entries < ways:
            raise ConfigError("PCTc needs at least one full set")
        self.capacity = entries
        self.latency_cycles = latency_cycles
        self._resident: "OrderedDict[int, PctEntry]" = OrderedDict()
        self._changed: Dict[int, bool] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def lookup(self, page: int) -> Optional[PctEntry]:
        entry = self._resident.get(page)
        if entry is not None:
            self._resident.move_to_end(page)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def contains(self, page: int) -> bool:
        return page in self._resident

    def fill(self, page: int, entry: PctEntry) -> Optional[Tuple[int, PctEntry, bool]]:
        """Install an entry; returns ``(page, entry, changed)`` of the victim.

        The caller writes the victim back to the in-DRAM PCT only when its
        change bit is set (the paper's write-back filter).
        """
        self.writes += 1
        if page in self._resident:
            self._resident[page] = entry
            self._resident.move_to_end(page)
            return None
        victim = None
        if len(self._resident) >= self.capacity:
            victim_page, victim_entry = self._resident.popitem(last=False)
            victim = (victim_page, victim_entry, self._changed.pop(victim_page, False))
        self._resident[page] = entry
        self._changed[page] = False
        return victim

    def update(self, page: int, entry: PctEntry, effective_change: bool) -> None:
        """Overwrite a resident entry, setting the change bit if effective."""
        if page not in self._resident:
            self.fill(page, entry)
        else:
            self.writes += 1
            self._resident[page] = entry
            self._resident.move_to_end(page)
        if effective_change:
            self._changed[page] = True

    def entries(self) -> List[Tuple[int, PctEntry]]:
        """Resident (page, entry) pairs without disturbing LRU order."""
        return list(self._resident.items())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        return len(self._resident)


class FilterTable:
    """The fully-associative Filter (Figure 6, bottom) plus flurry tracking.

    One leader flurry is "current" per PID at any time; a miss on a
    different page closes the previous flurry and opens a new one.  While
    page Q's flurry runs right after page P's, Q's misses also accumulate
    into P's follower fields, which is how follower counts are learned.
    """

    def __init__(self, entries: int, counter_max: int, swap_threshold: int):
        if entries < 2:
            raise ConfigError("Filter needs at least two entries")
        self.capacity = entries
        self.counter_max = counter_max
        self.swap_threshold = swap_threshold
        self._entries: "OrderedDict[int, FilterEntry]" = OrderedDict()
        self.reads = 0
        self.writes = 0
        #: Current leader page per PID.
        self._current_leader: Dict[int, int] = {}
        #: The page whose flurry immediately precedes the current one, per PID.
        self._previous_leader: Dict[int, int] = {}

    # -- helpers ---------------------------------------------------------------
    def _saturate(self, value: int) -> int:
        return min(self.counter_max, value)

    def entry_for(self, page: int) -> Optional[FilterEntry]:
        return self._entries.get(page)

    def current_leader(self, pid: int) -> Optional[int]:
        return self._current_leader.get(pid)

    @staticmethod
    def merged_history(entry: FilterEntry, counter_max: int) -> PctEntry:
        """Fold a closing invocation into the stored history.

        ``new count = misses this invocation + old count / 2`` for leader
        and follower; the follower slot keeps whichever of the old and new
        followers was observed more this invocation.
        """
        count = min(counter_max, entry.misses + entry.base.count // 2)
        old_follower = entry.base.follower_ppn
        keep_new = (
            entry.new_follower_ppn is not None
            and (old_follower is None or entry.new_follower_misses > entry.follower_misses)
        )
        if keep_new:
            follower = entry.new_follower_ppn
            follower_count = min(
                counter_max, entry.new_follower_misses + entry.base.follower_count // 2
            )
        else:
            follower = old_follower
            follower_count = min(
                counter_max, entry.follower_misses + entry.base.follower_count // 2
            )
        return PctEntry(count=count, follower_ppn=follower, follower_count=follower_count)

    # -- the per-miss protocol ----------------------------------------------------
    def observe_miss(
        self, pid: int, page: int, history: PctEntry
    ) -> Tuple[Sequence[CorrelationTrigger], Sequence[FilterEntry]]:
        """Process one LLC miss on *page* by process *pid*.

        *history* is the PCTc entry for *page* (fetched by the caller; a
        fresh :class:`PctEntry` if the page was never seen).

        Returns ``(triggers, evicted)``: prefetch-swap opportunities raised
        by this miss (only on the first miss of an invocation), and Filter
        entries evicted to make room, which the caller must write back to
        the PCTc.  Callers only iterate the sequences; the same-leader
        fast path (most misses — flurries are the common case) returns a
        shared empty tuple so it allocates nothing.
        """
        self.reads += 1
        self.writes += 1
        leader = self._current_leader.get(pid)

        if leader == page:
            entry = self._entries.get(page)
            if entry is not None:
                entry.misses = self._saturate(entry.misses + 1)
            self._feed_predecessor(pid, page)
            return (), ()
        evicted: List[FilterEntry] = []

        # A new flurry begins: remember the old one as predecessor.
        if leader is not None:
            self._previous_leader[pid] = leader
            self._record_follower(pid, leader, page)
        self._current_leader[pid] = page

        entry = self._entries.get(page)
        if entry is None:
            entry = FilterEntry(page=page, pid=pid, base=history)
            evicted.extend(self._insert(entry))
        else:
            self._entries.move_to_end(page)
        entry.misses = self._saturate(entry.misses + 1)
        self._feed_predecessor(pid, page)

        triggers: List[CorrelationTrigger] = []
        if entry.base.count >= self.swap_threshold:
            triggers.append(CorrelationTrigger(page=page, is_follower=False))
        if (
            entry.base.follower_ppn is not None
            and entry.base.follower_count >= self.swap_threshold
        ):
            triggers.append(
                CorrelationTrigger(page=entry.base.follower_ppn, is_follower=True)
            )
        return triggers, evicted

    def _feed_predecessor(self, pid: int, page: int) -> None:
        """Count this miss into the previous leader's follower fields."""
        previous = self._previous_leader.get(pid)
        if previous is None or previous == page:
            return
        entry = self._entries.get(previous)
        if entry is None:
            return
        if entry.base.follower_ppn == page:
            entry.follower_misses = self._saturate(entry.follower_misses + 1)
        elif entry.new_follower_ppn in (None, page):
            entry.new_follower_ppn = page
            entry.new_follower_misses = self._saturate(entry.new_follower_misses + 1)

    def _record_follower(self, pid: int, leader: int, follower: int) -> None:
        """Note that *follower*'s flurry started right after *leader*'s."""
        entry = self._entries.get(leader)
        if entry is None:
            return
        if entry.base.follower_ppn != follower and entry.new_follower_ppn is None:
            entry.new_follower_ppn = follower

    def _insert(self, entry: FilterEntry) -> List[FilterEntry]:
        evicted: List[FilterEntry] = []
        while len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self._drop_leader_state(victim)
            evicted.append(victim)
        self._entries[entry.page] = entry
        return evicted

    def _drop_leader_state(self, victim: FilterEntry) -> None:
        pid = victim.pid
        if self._current_leader.get(pid) == victim.page:
            del self._current_leader[pid]
        if self._previous_leader.get(pid) == victim.page:
            del self._previous_leader[pid]

    def entries(self) -> List[FilterEntry]:
        """The in-flight entries without disturbing LRU order."""
        return list(self._entries.values())

    def drain(self) -> List[FilterEntry]:
        """Evict everything (end of run); caller writes the entries back."""
        drained = list(self._entries.values())
        self._entries.clear()
        self._current_leader.clear()
        self._previous_leader.clear()
        return drained

    @property
    def occupancy(self) -> int:
        return len(self._entries)
