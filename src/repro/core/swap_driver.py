"""The Swap Driver — Sections III-C1 (optimized slow swaps), III-D, V-B.

The Swap Driver initiates all page swaps, executes them through the swap
buffers in the memory modules, answers requests that target in-flight
pages from those buffers, and applies the bandwidth heuristic: when DRAM
has been serving almost all traffic, additional swaps are declined so the
NVM channels' bandwidth is not wasted (Section V-B's 95% rule).

PageSeer's remapping design forbids fast swaps (pages must return to their
home locations), so when an incoming NVM page needs a DRAM frame that is
already occupied by a *different* swapped-in NVM page, the driver performs
the paper's *optimized slow swap* (Figure 5): 3 page reads and 3 page
writes through the buffers, instead of the naive slow swap's 4+4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import FaultConfig, PageSeerConfig
from repro.common.errors import FaultError, UnrecoverableFaultError
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.prt import PageRemapTable
from repro.mem.main_memory import MainMemory
from repro.mem.swap_buffer import SwapBufferPool
from repro.vm.os_model import OsModel

#: Swap trigger labels (Figure 10's categories, plus fault rescue).
TRIGGER_MMU = "mmu"
TRIGGER_PCT = "pct"
TRIGGER_REGULAR = "regular"
TRIGGER_RESCUE = "rescue"

#: Literal stats-key tables per trigger (auditable by the RL002 lint rule).
_REQUEST_KEYS = {
    TRIGGER_MMU: "swap_driver/requests_mmu",
    TRIGGER_PCT: "swap_driver/requests_pct",
    TRIGGER_REGULAR: "swap_driver/requests_regular",
    TRIGGER_RESCUE: "swap_driver/requests_rescue",
}
_SWAP_KEYS = {
    TRIGGER_MMU: "swap_driver/swaps_mmu",
    TRIGGER_PCT: "swap_driver/swaps_pct",
    TRIGGER_REGULAR: "swap_driver/swaps_regular",
    TRIGGER_RESCUE: "swap_driver/swaps_rescue",
}


@dataclass(frozen=True)
class SwapRecord:
    """One committed swap: the evaluation figures' record, and the event
    :attr:`SwapDriver.listeners` receive."""

    page: int
    dram_frame: int
    trigger: str
    start: int
    end: int
    reads: int
    writes: int
    optimized_slow: bool
    #: The NVM page the swap sent home from *dram_frame* (Figure 5's
    #: optimized slow swap), or None when the frame held its home data.
    occupant: Optional[int]


class SwapDriver:
    """Executes and arbitrates page swaps for PageSeer.

    Observers subscribe to :attr:`listeners`; each committed swap reaches
    them once, as its :class:`SwapRecord`.
    """

    def __init__(
        self,
        config: PageSeerConfig,
        memory: MainMemory,
        prt: PageRemapTable,
        dram_hpt: HotPageTable,
        buffers: SwapBufferPool,
        stats: StatsRegistry,
        os_model: OsModel,
        faults: Optional[FaultConfig] = None,
        injector=None,
    ):
        self.config = config
        self.memory = memory
        self.prt = prt
        self.dram_hpt = dram_hpt
        self.buffers = buffers
        self.stats = stats
        #: Answers ``is_protected_frame`` (page tables and controller
        #: metadata stay pinned) and ``is_quarantined`` (failed NVM pages
        #: move only by :meth:`rescue_swap`).
        self.os_model = os_model
        #: Fault recovery knobs + the injector to suppress during rescues;
        #: both None in normal runs (no injector means no FaultError can
        #: escape a transfer, so the except paths below are dead code then).
        self._faults = faults
        self._injector = injector
        #: Pages frozen while a DMA transfer runs (Section III-E): never
        #: moved, and their frames never chosen as victims.
        self.frozen: Set[int] = set()
        #: Observed per-page line-usage bitmaps, the partial-swap
        #: extension's input; the request path fills them only when
        #: partial swaps are enabled.
        self.line_usage: Dict[int, int] = {}
        #: SILC-FM extension: per swapped-in page, bitmask of lines whose
        #: data was NOT moved (it still lives at the page's home location
        #: and migrates lazily on first touch).
        self.partial_residue: Dict[int, int] = {}
        #: SPA pages participating in an in-flight swap -> swap end time.
        self._active: Dict[int, int] = {}
        #: End times of in-flight swaps (each swap needs up to 3 buffers).
        self._in_flight_ends: List[int] = []
        self.max_in_flight = max(1, min(config.swap_engines, buffers.capacity // 3))
        #: Frames' last swap time, for victim LRU among equals.
        self._frame_last_swap: Dict[int, int] = {}
        #: The latest time lazy cleanup ran (see :meth:`_purge`).
        self.last_purge_time = 0
        self.records: List[SwapRecord] = []
        #: Called with each committed swap's record, after its stats are
        #: recorded.  The commit is the only writer of the PRT, so these
        #: calls are the one stream of remap changes.
        self.listeners: List[Callable[[SwapRecord], None]] = []

    # -- servicing requests that hit a swap in progress ------------------------
    def _purge(self, now: int) -> None:
        # Per-core request times are not globally monotone, so remember the
        # latest purge time: state about swaps ending before it may already
        # be gone (the sanitizer needs this to avoid false orphans).
        if now > self.last_purge_time:
            self.last_purge_time = now
        ends = self._in_flight_ends
        if not ends or min(ends) > now:
            # Nothing has ended: every _active end is one of the in-flight
            # ends, so the _active scan would find nothing either.
            return
        self._in_flight_ends = [e for e in ends if e > now]
        active = self._active
        for page in [page for page, end in active.items() if end <= now]:
            del active[page]

    def swap_end_for(self, now: int, page_spa: int) -> Optional[int]:
        """When the in-flight swap involving *page_spa* completes, if any."""
        self._purge(now)
        return self._active.get(page_spa)

    def service_if_swapping(self, now: int, page_spa: int) -> Optional[int]:
        """Serve a request for an in-flight page from the swap buffers.

        Returns the finish time, or None when the page is not part of any
        in-flight swap or no buffer holds its data (the caller then issues
        a normal access to the page's current location).
        """
        self._purge(now)
        if page_spa not in self._active:
            return None
        finish = self.buffers.service(now, page_spa)
        if finish is not None:
            self.stats._counters["swap_driver/buffer_services"] += 1.0
            return finish
        self.stats._counters["swap_driver/buffer_misses"] += 1.0
        return None

    # -- initiating swaps -----------------------------------------------------------
    def request_swap(
        self, now: int, page_spa: int, trigger: str, dram_service_share: float
    ) -> bool:
        """Try to move NVM-resident page *page_spa* into DRAM.

        Returns True when a swap was started.  Decline reasons are counted
        individually, because Figure 11 studies the bandwidth heuristic.
        """
        self._purge(now)
        # The two common declines are PRT.is_dram and dram_frame_holding,
        # inlined; every decline counts on the live counters dict.
        counters = self.stats._counters
        counters[_REQUEST_KEYS[trigger]] += 1.0
        prt = self.prt
        if page_spa < prt.dram_pages:
            # A home-DRAM page: either already fast, or displaced by an
            # active pair — it returns home only when its displacer leaves.
            counters["swap_driver/declined_dram_home"] += 1.0
            return False
        if page_spa in prt._nvm_to_dram:
            counters["swap_driver/declined_already_swapped"] += 1.0
            return False
        if page_spa in self._active:
            counters["swap_driver/declined_in_flight"] += 1.0
            return False
        if page_spa in self.frozen:
            # DMA in progress for this page (Section III-E): no swaps.
            counters["swap_driver/declined_frozen"] += 1.0
            return False
        if self.os_model.is_quarantined(page_spa):
            # A failed NVM page: only rescue_swap may move it (with fault
            # injection suppressed); a regular swap would have to read it.
            counters["swap_driver/declined_quarantined"] += 1.0
            return False
        if len(self._in_flight_ends) >= self.max_in_flight:
            counters["swap_driver/declined_engines_busy"] += 1.0
            return False
        if (
            self.config.bandwidth_heuristic_enabled
            and dram_service_share > self.config.bandwidth_decline_dram_share
        ):
            counters["swap_driver/declined_bandwidth"] += 1.0
            return False

        frame = self._choose_victim_frame(now, page_spa)
        if frame is None:
            counters["swap_driver/declined_locked"] += 1.0
            return False

        return self._execute(now, page_spa, frame, trigger)

    def rescue_swap(self, now: int, page_spa: int) -> bool:
        """Pull a quarantined NVM page's data into DRAM (fault recovery).

        Runs with fault injection suppressed — this is the controller's
        firmware-level ECC rebuild, which re-reads with heroics rather than
        tripping over the very error it is recovering from — and skips the
        bandwidth heuristic, because correctness beats throughput here.
        Structural safety checks (frozen pages, engine limits, colour
        locks) still apply; False means the rescue must be retried later.
        """
        self._purge(now)
        self.stats.add(_REQUEST_KEYS[TRIGGER_RESCUE])
        if self.prt.is_dram(page_spa):
            return False
        if self.prt.dram_frame_holding(page_spa) is not None:
            return False
        if page_spa in self._active or page_spa in self.frozen:
            return False
        if len(self._in_flight_ends) >= self.max_in_flight:
            return False
        frame = self._choose_victim_frame(now, page_spa)
        if frame is None:
            return False
        if self._injector is not None:
            with self._injector.suppressed():
                return self._execute(now, page_spa, frame, TRIGGER_RESCUE)
        return self._execute(now, page_spa, frame, TRIGGER_RESCUE)

    def _choose_victim_frame(self, now: int, page_spa: int) -> Optional[int]:
        """Pick a DRAM frame of the page's colour, honouring HPT locks."""
        colour = self.prt.colour_of(page_spa)
        frozen = self.frozen
        os_model = self.os_model
        best_frame = None
        best_key = None
        for frame in self.prt.dram_frames_of_colour(colour):
            if frame in self._active:
                continue
            occupant = self.prt.nvm_page_in_frame(frame)
            occupant_spa = occupant if occupant is not None else frame
            if self.dram_hpt.is_hot(occupant_spa):
                continue
            if occupant_spa in frozen or frame in frozen:
                continue
            if occupant is None and os_model.is_protected_frame(frame):
                continue
            if occupant_spa in self._active:
                continue
            # A rescued page is pinned in DRAM: evicting it would write its
            # data back to its quarantined (failed) home location.
            if os_model.is_quarantined(occupant_spa):
                continue
            # Prefer frames still holding (cold) home data, then the frame
            # whose last swap is oldest.
            key = (0 if occupant is None else 1, self._frame_last_swap.get(frame, -1))
            if best_key is None or key < best_key:
                best_key = key
                best_frame = frame
        return best_frame

    # -- executing swaps ---------------------------------------------------------------
    def _execute(self, now: int, page_spa: int, frame: int, trigger: str) -> bool:
        """Run the transfers, then commit; returns False on an aborted swap.

        The transfer phase touches only device timing state, so a
        mid-transfer fault aborts the swap with **no** rollback needed: the
        PRT, residue map, buffers, in-flight windows, and every counter are
        mutated only after all reads and writes succeeded (the commit
        point).  Transient transfer faults are retried with backoff up to
        the configured budget; an uncorrectable read aborts immediately —
        the demand path will quarantine and rescue that page instead.
        """
        incoming_lines, residue_mask = self._incoming_line_budget(page_spa)
        occupant = self.prt.nvm_page_in_frame(frame)
        attempt = 0
        start = now
        while True:
            try:
                if occupant is None:
                    end, reads, writes = self._simple_swap(
                        start, page_spa, frame, incoming_lines
                    )
                    optimized = False
                    involved = [page_spa, frame]
                else:
                    end, reads, writes = self._optimized_slow_swap(
                        start, page_spa, frame, occupant, incoming_lines
                    )
                    optimized = True
                    involved = [page_spa, frame, occupant]
                break
            except UnrecoverableFaultError:
                self.stats.add("swap_driver/aborted_swaps")
                return False
            except FaultError:
                if self._faults is None or attempt >= self._faults.max_retries:
                    self.stats.add("swap_driver/aborted_swaps")
                    return False
                self.stats.add("swap_driver/swap_retries")
                start += self._faults.retry_backoff_cycles << attempt
                attempt += 1

        # -- commit point: all transfers landed ---------------------------
        if occupant is not None:
            self.prt.remove(occupant)
            self.partial_residue.pop(occupant, None)
        if residue_mask:
            self.partial_residue[page_spa] = residue_mask
            self.stats.add("swap_driver/partial_swaps")
        self.prt.install(page_spa, frame)
        self._frame_last_swap[frame] = start

        self._in_flight_ends.append(end)
        for page in involved:
            self._active[page] = end
            self.buffers.try_hold(page, start, end)

        record = SwapRecord(
            page=page_spa,
            dram_frame=frame,
            trigger=trigger,
            start=start,
            end=end,
            reads=reads,
            writes=writes,
            optimized_slow=optimized,
            occupant=occupant,
        )
        self.records.append(record)
        self.stats.add("swap_driver/swaps")
        self.stats.add(_SWAP_KEYS[trigger])
        if optimized:
            self.stats.add("swap_driver/optimized_slow_swaps")
        self.stats.observe("swap_driver/swap_duration", end - start)
        for listener in self.listeners:
            listener(record)
        return True

    def _incoming_line_budget(self, page_spa: int) -> tuple:
        """How many of the incoming page's 64 lines to move, plus residue.

        Without the partial-swap extension (or without a usable bitmap)
        the whole page moves.  With it, only the observed-hot lines move;
        the rest are marked as residue and migrate lazily.
        """
        full_mask = (1 << LINES_PER_PAGE) - 1
        if not self.config.partial_swaps_enabled:
            return LINES_PER_PAGE, 0
        mask = self.line_usage.get(page_spa, 0) & full_mask
        hot = bin(mask).count("1")
        if hot == 0 or hot >= self.config.partial_swap_full_threshold:
            return LINES_PER_PAGE, 0
        return hot, full_mask & ~mask

    def _simple_swap(
        self, now: int, nvm_page: int, frame: int, incoming_lines: int
    ) -> tuple:
        """Exchange an NVM page with a frame holding its home data: 2R+2W.

        The incoming page moves only its *incoming_lines* (all 64 unless
        a partial swap leaves residue).
        """
        memory = self.memory
        read_dram = memory.read_page(now, frame)
        read_nvm = memory.transfer_segment(
            now, nvm_page * LINES_PER_PAGE, incoming_lines, False
        )
        data_ready = max(read_dram, read_nvm)
        write_nvm = memory.write_page(data_ready, nvm_page)
        write_dram = memory.transfer_segment(
            data_ready, frame * LINES_PER_PAGE, incoming_lines, True
        )
        return max(write_nvm, write_dram), 2, 2

    def _optimized_slow_swap(
        self, now: int, nvm_page: int, frame: int, occupant: int,
        incoming_lines: int,
    ) -> tuple:
        """Figure 5's 3-read/3-write swap through the buffers.

        *occupant*'s data currently sits in *frame*; *frame*'s home data
        sits at *occupant*'s home location.  Afterwards: occupant is back
        home, *nvm_page*'s data is in *frame*, and *frame*'s home data is
        at *nvm_page*'s home.
        """
        memory = self.memory
        read_frame = memory.read_page(now, frame)          # occupant's data
        read_occ_home = memory.read_page(now, occupant)    # frame's home data
        read_new = memory.transfer_segment(
            now, nvm_page * LINES_PER_PAGE, incoming_lines, False
        )
        write_occ_home = memory.write_page(max(read_frame, read_occ_home), occupant)
        write_frame = memory.transfer_segment(
            max(read_frame, read_new), frame * LINES_PER_PAGE, incoming_lines, True
        )
        write_new_home = memory.write_page(max(read_occ_home, read_new), nvm_page)
        return max(write_occ_home, write_frame, write_new_home), 3, 3

    # -- introspection ---------------------------------------------------------
    def active_swaps(self) -> Dict[int, int]:
        """``{page_spa: end_time}`` for pages in an in-flight swap."""
        return dict(self._active)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight_ends)
