"""Pluggable runtime invariant checkers (the sanitizer's structural half).

Each checker inspects one slice of a live :class:`repro.sim.system.System`
and returns the :class:`Violation` objects it found.  Checkers are pure
observers: they never mutate model state (in particular they use the
LRU-neutral ``entries()`` accessors, never ``lookup``), so an attached
sanitizer cannot change simulation results — only report on them.

The checkers implemented here cover the structures the paper's claims
rest on:

* **PRT bijectivity** — the remap relation is a colour-respecting
  involution: forward and reverse maps are exact inverses, no two NVM
  pages occupy one DRAM frame, and no pair touches a protected frame.
* **Frame exclusivity** — across every process's page tables, the
  controller metadata region, and the allocator bump pointers, each
  physical frame is owned at most once and lies in an allocated range.
* **Swap conservation** — every page in an in-flight swap is accounted
  for in exactly one place: live swap-buffer windows belong to active
  swaps, partial-swap residue belongs to swapped-in pages, and the
  number of concurrent swaps never exceeds the engine budget.
* **Counter monotonicity** — HPT counters only grow within one decay
  epoch, and every PCT/PCTc/Filter counter stays inside its 6-bit range.
* **Stats sanity** — no counter or observation count is negative, every
  value is finite, and means never exceed maxima.
* **Slot-map bijectivity** (PoM, MemPod, CAMEO) — each baseline's
  member <-> slot maps are exact inverses holding no identity entry and
  nothing outside the scheme's slot space, and a MemPod pod's map holds
  only the pod's own segments.
* **Quarantine integrity** (fault injection only) — every frame retired
  after an uncorrectable error is a valid NVM page, the retired set only
  grows, and every page the injector knows is bad has been quarantined.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.addr import LINES_PER_PAGE


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation, with its page/frame context."""

    checker: str
    message: str
    page: Optional[int] = None
    frame: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.page is not None:
            where.append(f"page={self.page}")
        if self.frame is not None:
            where.append(f"frame={self.frame}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"[{self.checker}] {self.message}{suffix}"


class InvariantChecker:
    """Base class: one named, stateless-or-stateful structural check."""

    name = "invariant"

    def check(self, system, now: int) -> List[Violation]:
        """Inspect *system* at time *now*; return all violations found."""
        raise NotImplementedError

    def _violation(
        self,
        message: str,
        page: Optional[int] = None,
        frame: Optional[int] = None,
    ) -> Violation:
        return Violation(checker=self.name, message=message, page=page, frame=frame)


class PrtBijectivityChecker(InvariantChecker):
    """The Page Remapping Table is a colour-respecting involution."""

    name = "prt-bijectivity"

    def check(self, system, now: int) -> List[Violation]:
        prt = system.hmc.prt
        os_model = system.os_model
        out: List[Violation] = []
        forward = dict(prt.entries())
        reverse = dict(prt.reverse_entries())

        for nvm, frame in forward.items():
            if not (prt.dram_pages <= nvm < prt.total_pages):
                out.append(self._violation(
                    f"forward entry keyed by non-NVM page {nvm}",
                    page=nvm, frame=frame))
            if not (0 <= frame < prt.dram_pages):
                out.append(self._violation(
                    f"forward entry maps into non-DRAM frame {frame}",
                    page=nvm, frame=frame))
                continue
            if prt.colour_of(nvm) != prt.colour_of(frame):
                out.append(self._violation(
                    f"colour mismatch: nvm colour {prt.colour_of(nvm)} vs "
                    f"frame colour {prt.colour_of(frame)}",
                    page=nvm, frame=frame))
            if reverse.get(frame) != nvm:
                out.append(self._violation(
                    f"forward entry {nvm} -> {frame} has no matching reverse "
                    f"entry (reverse says {reverse.get(frame)})",
                    page=nvm, frame=frame))
            if os_model.is_protected_frame(frame):
                out.append(self._violation(
                    "swap pair occupies a protected frame "
                    "(page tables / controller metadata must stay pinned)",
                    page=nvm, frame=frame))

        frames_used = list(forward.values())
        if len(set(frames_used)) != len(frames_used):
            seen: Dict[int, int] = {}
            for nvm, frame in forward.items():
                if frame in seen:
                    out.append(self._violation(
                        f"two virtual pages map to one frame: NVM pages "
                        f"{seen[frame]} and {nvm} both claim it",
                        page=nvm, frame=frame))
                seen[frame] = nvm

        for frame, nvm in reverse.items():
            if forward.get(nvm) != frame:
                out.append(self._violation(
                    f"reverse entry {frame} -> {nvm} has no matching forward "
                    f"entry (forward says {forward.get(nvm)})",
                    page=nvm, frame=frame))
        return out


class FrameExclusivityChecker(InvariantChecker):
    """Every physical frame is owned at most once, in an allocated range."""

    name = "frame-exclusivity"

    def check(self, system, now: int) -> List[Violation]:
        os_model = system.os_model
        memory = system.config.memory
        out: List[Violation] = []

        if os_model.dram_frames_used > memory.dram_pages:
            out.append(self._violation(
                f"DRAM allocator overran its range: "
                f"{os_model.dram_frames_used} > {memory.dram_pages}"))
        if os_model.nvm_frames_used > memory.nvm_pages:
            out.append(self._violation(
                f"NVM allocator overran its range: "
                f"{os_model.nvm_frames_used} > {memory.nvm_pages}"))

        owners: Dict[int, str] = {}

        def claim(frame: int, owner: str) -> None:
            if frame in owners:
                out.append(self._violation(
                    f"frame allocated twice: owned by {owners[frame]} "
                    f"and {owner}", frame=frame))
                return
            owners[frame] = owner
            if not (0 <= frame < memory.total_pages):
                out.append(self._violation(
                    f"{owner} holds out-of-range frame", frame=frame))
            elif memory.is_dram_page(frame):
                if frame >= os_model.dram_frames_used:
                    out.append(self._violation(
                        f"{owner} holds unallocated DRAM frame", frame=frame))
            elif frame >= memory.dram_pages + os_model.nvm_frames_used:
                out.append(self._violation(
                    f"{owner} holds unallocated NVM frame", frame=frame))

        for page in os_model.metadata_pages:
            claim(page, "controller-metadata")
        for pid, process in os_model.processes.items():
            for frame in process.page_table.table_pages():
                claim(frame, f"pid{pid}-page-table")
            for frame in process.page_table.data_frames():
                claim(frame, f"pid{pid}-data")
        return out


class SwapConservationChecker(InvariantChecker):
    """Every in-flight page is accounted for in exactly one place."""

    name = "swap-conservation"

    def check(self, system, now: int) -> List[Violation]:
        driver = system.hmc.swap_driver
        prt = system.hmc.prt
        buffers = system.hmc.buffers
        out: List[Violation] = []

        if driver.in_flight_count > driver.max_in_flight:
            out.append(self._violation(
                f"{driver.in_flight_count} concurrent swaps exceed the "
                f"{driver.max_in_flight}-engine budget"))
        if buffers.occupancy > buffers.capacity:
            out.append(self._violation(
                f"buffer pool over capacity: {buffers.occupancy} > "
                f"{buffers.capacity}"))

        active = driver.active_swaps()
        # Per-core request times skew, so a swap may already be purged at a
        # wall time later than this sweep's `now`; only windows outliving
        # the driver's purge high-water mark can be genuine orphans.
        horizon = max(now, driver.last_purge_time)
        for key, (available_from, release_at) in buffers.held_windows().items():
            if release_at <= horizon:
                continue  # expired entry awaiting lazy cleanup
            if key not in active:
                out.append(self._violation(
                    "live swap buffer holds a page with no in-flight swap",
                    page=key))
            elif active[key] < release_at:
                out.append(self._violation(
                    f"buffer window outlives its swap "
                    f"(buffer until {release_at}, swap ends {active[key]})",
                    page=key))

        full_mask = (1 << LINES_PER_PAGE) - 1
        for page, residue in driver.partial_residue.items():
            if prt.dram_frame_holding(page) is None:
                out.append(self._violation(
                    "partial-swap residue recorded for a page that is not "
                    "swapped in", page=page))
            if residue == 0 or residue & ~full_mask:
                out.append(self._violation(
                    f"malformed residue bitmap {residue:#x}", page=page))
        return out


class CounterMonotonicityChecker(InvariantChecker):
    """HPT counters grow within an epoch; all counters stay in range.

    A counter may legitimately restart at 1 if its entry was evicted (or
    removed after a swap) and the page re-missed, so the checker
    subscribes to the HPTs' evict/remove events and exempts those pages
    from the monotonicity comparison until the next sweep.
    """

    name = "counter-monotonicity"

    def __init__(self, system) -> None:
        #: Per-table (epoch, {page: counter}) from the previous sweep.
        self._previous: Dict[str, Tuple[int, Dict[int, int]]] = {}
        #: Pages whose entry left a table since the previous sweep.
        self._departed: Dict[str, set] = {"dram-hpt": set(), "nvm-hpt": set()}
        hmc = system.hmc
        hmc.dram_hpt.on_event = functools.partial(self._on_departure, "dram-hpt")
        hmc.nvm_hpt.on_event = functools.partial(self._on_departure, "nvm-hpt")

    def _on_departure(self, label: str, kind: str, page: int) -> None:
        """An HPT's evict/remove event: *page* left table *label*."""
        self._departed[label].add(page)

    def check(self, system, now: int) -> List[Violation]:
        hmc = system.hmc
        counter_max = system.config.pageseer.counter_max
        out: List[Violation] = []

        for label, hpt in (("dram-hpt", hmc.dram_hpt), ("nvm-hpt", hmc.nvm_hpt)):
            counters = hpt.counters()
            epoch = hpt.epoch
            for page, count in counters.items():
                if not (1 <= count <= counter_max):
                    out.append(self._violation(
                        f"{label} counter {count} outside [1, {counter_max}]",
                        page=page))
            previous = self._previous.get(label)
            departed = self._departed[label]
            if previous is not None and previous[0] == epoch:
                for page, old_count in previous[1].items():
                    new_count = counters.get(page)
                    if (
                        new_count is not None
                        and new_count < old_count
                        and page not in departed
                    ):
                        out.append(self._violation(
                            f"{label} counter decreased {old_count} -> "
                            f"{new_count} within epoch {epoch}", page=page))
            departed.clear()
            self._previous[label] = (epoch, counters)

        for page, entry in hmc.pct.entries():
            out.extend(self._check_pct_entry("pct", page, entry, counter_max))
        for page, entry in hmc.pctc.entries():
            out.extend(self._check_pct_entry("pctc", page, entry, counter_max))
        for entry in hmc.filter.entries():
            if not (0 <= entry.misses <= counter_max):
                out.append(self._violation(
                    f"filter miss counter {entry.misses} outside "
                    f"[0, {counter_max}]", page=entry.page))
            if not (0 <= entry.follower_misses <= counter_max):
                out.append(self._violation(
                    f"filter follower counter {entry.follower_misses} "
                    f"outside [0, {counter_max}]", page=entry.page))
        return out

    def _check_pct_entry(self, label: str, page: int, entry, counter_max: int):
        out = []
        if not (0 <= entry.count <= counter_max):
            out.append(self._violation(
                f"{label} count {entry.count} outside [0, {counter_max}]",
                page=page))
        if not (0 <= entry.follower_count <= counter_max):
            out.append(self._violation(
                f"{label} follower count {entry.follower_count} outside "
                f"[0, {counter_max}]", page=page))
        return out


class StatsSanityChecker(InvariantChecker):
    """No counter goes negative; every observation stream is coherent."""

    name = "stats-sanity"

    def check(self, system, now: int) -> List[Violation]:
        snap = system.stats.snapshot_full()
        out: List[Violation] = []
        for name, value in snap.counters.items():
            if not math.isfinite(value):
                out.append(self._violation(f"counter {name} is {value}"))
            elif value < 0:
                out.append(self._violation(f"counter {name} is negative: {value}"))
        for name, count in snap.counts.items():
            if count < 0:
                out.append(self._violation(
                    f"observation count {name} is negative: {count}"))
            if count > 0 and name not in snap.maxima:
                out.append(self._violation(
                    f"observations of {name} recorded but no maximum kept"))
        for name, total in snap.sums.items():
            if not math.isfinite(total):
                out.append(self._violation(f"sum {name} is {total}"))
                continue
            count = snap.counts.get(name, 0)
            if count > 0:
                mean = total / count
                maximum = snap.maxima.get(name)
                if maximum is not None and mean > maximum + 1e-9:
                    out.append(self._violation(
                        f"mean of {name} ({mean}) exceeds its maximum "
                        f"({maximum})"))
        return out


class SlotMapChecker(InvariantChecker):
    """The baselines' :class:`repro.baselines.remap.SlotMap` state.

    A slot map elides identity entries, so a member at home and a slot
    holding its own member have no entry.  Its two maps must therefore be
    inverses of equal size with no entry mapping a number to itself, and
    every number in them must lie in the scheme's slot space: segments
    for PoM and MemPod, lines for CAMEO.  A MemPod pod exchanges data
    only among its own segments, so every number in a pod's maps must
    belong to that pod.
    """

    name = "slot-map"

    def check(self, system, now: int) -> List[Violation]:
        hmc = system.hmc
        out: List[Violation] = []
        if system.scheme == "mempod":
            for index, pod in enumerate(hmc._pods):
                label = f"pod {index}"
                out.extend(self._check_map(label, pod, hmc.total_segments))
                for number in {*pod._slot_of, *pod._member_in}:
                    if hmc.pod_of(number) is not pod:
                        out.append(self._violation(
                            f"{label} maps segment {number}, which belongs "
                            f"to another pod", page=number))
        elif system.scheme == "cameo":
            out.extend(self._check_map("line map", hmc._slots, hmc.total_lines))
        else:
            out.extend(
                self._check_map("segment map", hmc._slots, hmc.total_segments)
            )
        return out

    def _check_map(self, label: str, slot_map, space: int) -> List[Violation]:
        out: List[Violation] = []
        slot_of = slot_map._slot_of
        member_in = slot_map._member_in
        if len(slot_of) != len(member_in):
            out.append(self._violation(
                f"{label}: {len(slot_of)} member entries but "
                f"{len(member_in)} slot entries"))
        for forward, reverse, kind in (
            (slot_of, member_in, "member"),
            (member_in, slot_of, "slot"),
        ):
            for key, value in forward.items():
                if key == value:
                    out.append(self._violation(
                        f"{label}: identity {kind} entry {key} -> {value}",
                        page=key))
                if not (0 <= key < space and 0 <= value < space):
                    out.append(self._violation(
                        f"{label}: {kind} entry {key} -> {value} outside "
                        f"the slot space [0, {space})", page=key))
                if reverse.get(value) != key:
                    out.append(self._violation(
                        f"{label}: {kind} entry {key} -> {value} has no "
                        f"inverse (reverse says {reverse.get(value)})",
                        page=key))
        return out


class QuarantineChecker(InvariantChecker):
    """Frame quarantine (``repro.faults``) stays coherent with the injector.

    Quarantine is monotone — a frame retired after an uncorrectable error
    never returns to service — and complete: every NVM page the injector's
    sticky bad-page set contains must have been quarantined by the
    recovery hook the first time a read of it was serviced.
    """

    name = "quarantine"

    def __init__(self) -> None:
        self._previously_quarantined: set = set()

    def check(self, system, now: int) -> List[Violation]:
        os_model = system.os_model
        memory = system.config.memory
        out: List[Violation] = []

        quarantined = set(os_model.quarantined_frames)
        for frame in quarantined:
            if not (0 <= frame < memory.total_pages):
                out.append(self._violation(
                    "quarantined frame outside physical memory", frame=frame))
            elif not memory.is_nvm_page(frame):
                out.append(self._violation(
                    "quarantined frame is not an NVM page (only NVM frames "
                    "suffer uncorrectable errors)", frame=frame))
        lost = self._previously_quarantined - quarantined
        for frame in sorted(lost):
            out.append(self._violation(
                "frame left quarantine (retirement must be permanent)",
                frame=frame))
        self._previously_quarantined = quarantined

        injector = getattr(system.hmc, "fault_injector", None)
        if injector is not None:
            for local_page in injector.bad_pages:
                spa_page = memory.dram_pages + local_page
                if spa_page not in quarantined:
                    out.append(self._violation(
                        "injector knows this NVM page is bad but it was "
                        "never quarantined", page=spa_page))
        return out


def build_checkers(system) -> List[InvariantChecker]:
    """The checkers that apply to *system*'s scheme."""
    checkers: List[InvariantChecker] = [
        FrameExclusivityChecker(),
        StatsSanityChecker(),
    ]
    if system.scheme == "pageseer":
        checkers.extend([
            PrtBijectivityChecker(),
            SwapConservationChecker(),
            CounterMonotonicityChecker(system),
        ])
        if system.config.faults.enabled:
            checkers.append(QuarantineChecker())
    elif system.scheme in ("pom", "mempod", "cameo"):
        checkers.append(SlotMapChecker())
    return checkers
