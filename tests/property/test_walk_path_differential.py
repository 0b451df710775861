"""Differential property suite: PageSeer's flattened request and walk paths.

``PageSeerHmc.handle_request``, ``PageWalker.walk``,
``PageSeerHmc.mmu_hint``, ``handle_pte_fetch`` and the PCT plumbing
(``_pctc_fill_from_pct``, ``_writeback_filter_entry``) run inline over
the state of the structures they touch.  The owning classes keep their
methods as the reference: this suite rebuilds the paths from those
methods — ``PrtCache.lookup``/``contains``/``fill``,
``PageRemapTable.location_of``, ``HotPageTable.record_miss``,
``FilterTable.observe_miss``, ``MmuDriver.on_hint`` with
``_fetch_pte_line``, ``PctCache.lookup``/``fill``/``update`` with
``PageCorrelationTable.read``, ``FilterTable.merged_history``,
``PageWalkCache.deepest_hit``/``fill`` and ``PageTable.entry_addresses``
— and drives them and the flattened bodies on two identical machines
with the same random sequences.  Finish times, stats, device state,
swap records, and the PRTc/PCTc/Filter/MMU-Driver/PWC/HPT contents in
LRU order must stay identical, the way ``tests/unit/test_device.py``
pins ``access`` against ``access_finish``.

Structures are tiny and thresholds low, so evictions, write-backs and
prefetch swaps (which remap pages, moving PTE lines and targets between
DRAM and NVM) happen constantly.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.common.addr import LINE_SHIFT, LINES_PER_PAGE, PAGE_SHIFT
from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.core.hmc import PageSeerHmc
from repro.core.hpt import HotPageTable
from repro.core.pct import FilterEntry, FilterTable, PctEntry
from repro.core.swap_driver import TRIGGER_MMU, TRIGGER_PCT, TRIGGER_REGULAR
from repro.sim.hmc_base import RequestKind
from repro.sim.system import build_system
from repro.vm.os_model import OsModel
from repro.vm.walker import WalkResult
from repro.workloads import synthetic, workload_by_name

# -- the reference path, composed from the owning classes' methods ---------


def reference_pctc_fill(hmc, now, page):
    """The PCTc miss path as the methods spell it."""
    hmc.metadata_access(now, hmc._prt_metadata_keys + page)
    entry = hmc.pct.read(page)
    if not hmc.ps.correlation_enabled:
        entry = entry._replace(follower_ppn=None, follower_count=0)
    victim = hmc.pctc.fill(page, entry)
    if victim is not None:
        victim_page, victim_entry, changed = victim
        if changed:
            hmc.pct.write(victim_page, victim_entry)
            hmc.metadata_access(
                now, hmc._prt_metadata_keys + victim_page, is_write=True
            )
    return entry


def reference_writeback(hmc, now, entry):
    """A closing flurry's PCTc write-back as the methods spell it."""
    merged = FilterTable.merged_history(entry, hmc.ps.counter_max)
    if not hmc.ps.correlation_enabled:
        merged = merged._replace(follower_ppn=None, follower_count=0)
    threshold = hmc.ps.pct_prefetch_threshold
    effective_change = (
        (merged.count >= threshold) != (entry.base.count >= threshold)
        or merged.follower_ppn != entry.base.follower_ppn
        or (merged.follower_count >= threshold)
        != (entry.base.follower_count >= threshold)
    )
    hmc.pctc.update(entry.page, merged, effective_change)


def reference_mmu_hint(hmc, now, pte_line_spa, pid, vpn, target_ppn):
    """The MMU-hint path as the methods spell it."""
    ps = hmc.ps
    if not ps.mmu_hints_enabled:
        return
    t = now + ps.mmu_hint_latency_cycles
    hmc.stats.add("hmc/mmu_hints")
    hmc.mmu_driver.on_hint(t, pte_line_spa)
    colour = hmc.prt.colour_of(target_ppn)
    if not hmc.prtc.contains(colour):
        hmc.metadata_access(t, colour)
        hmc.prtc.fill(colour)
        hmc.stats.add("hmc/prtc_prefetches")
    history = hmc.pctc.lookup(target_ppn)
    if history is None:
        history = reference_pctc_fill(hmc, t, target_ppn)
    threshold = ps.pct_prefetch_threshold
    if history.count >= threshold:
        hmc.swap_driver.request_swap(t, target_ppn, TRIGGER_MMU, hmc.dram_service_share)
    if (
        ps.correlation_enabled
        and history.follower_ppn is not None
        and history.follower_count >= threshold
    ):
        hmc.swap_driver.request_swap(
            t, history.follower_ppn, TRIGGER_MMU, hmc.dram_service_share
        )


def reference_handle_request(
    hmc, now, line_spa, is_write, pid, kind=RequestKind.DEMAND
):
    """The request path as the methods spell it.

    The Filter's evicted entries are written back after
    ``observe_miss`` returns and before its triggers are raised; a
    follower trigger is dropped when correlation is off.
    """
    ps = hmc.ps
    page = line_spa // LINES_PER_PAGE
    line_offset = line_spa % LINES_PER_PAGE
    bulk = kind is RequestKind.WRITEBACK
    t = now + ps.prtc_latency_cycles
    colour = hmc.prt.colour_of(page)
    if not hmc.prtc.lookup(colour):
        t = hmc.remap_miss(t, colour)
        hmc.prtc.fill(colour)
    driver = hmc.swap_driver
    if ps.partial_swaps_enabled:
        driver.line_usage[page] = driver.line_usage.get(page, 0) | (1 << line_offset)
    buffered = driver.service_if_swapping(t, page)
    if buffered is not None:
        finish, serviced, resident_dram = buffered, "buffer", True
    elif (driver.partial_residue.get(page, 0) >> line_offset) & 1:
        finish = hmc._migrate_residue_line(t, page, line_offset, is_write)
        serviced, resident_dram = "nvm", True
    else:
        location = hmc.prt.location_of(page)
        resident_dram = location < hmc.dram_pages
        actual_line = location * LINES_PER_PAGE + line_offset
        if resident_dram:
            finish = hmc.dram_access(t, actual_line, is_write, bulk)
        else:
            finish = hmc.nvm_access(
                t, actual_line - hmc._nvm_line_base, is_write, bulk
            )
        serviced = "dram" if resident_dram else "nvm"
    hmc.account_service(now, finish, page, serviced, kind)
    if serviced != "nvm" and page in hmc._prefetch_live:
        hmc._prefetch_live[page] += 1

    hmc.dram_hpt.advance_time(t)
    hmc.nvm_hpt.advance_time(t)
    hpt = hmc.dram_hpt if resident_dram else hmc.nvm_hpt
    if hpt.record_miss(t, page) and driver.request_swap(
        t + ps.hpt_latency_cycles, page, TRIGGER_REGULAR, hmc.dram_service_share
    ):
        hmc.nvm_hpt.remove(page)

    history = hmc.pctc.lookup(page)
    if history is None:
        history = hmc._pctc_fill_from_pct(t, page)
    triggers, evicted = hmc.filter.observe_miss(pid, page, history)
    for entry in evicted:
        hmc._writeback_filter_entry(t, entry)
    for trigger in triggers:
        if trigger.is_follower and not ps.correlation_enabled:
            continue
        driver.request_swap(
            t + ps.filter_latency_cycles, trigger.page, TRIGGER_PCT,
            hmc.dram_service_share,
        )
    return finish


def reference_pte_fetch(hmc, now, line_spa, target_ppn, pid):
    intercepted = hmc.mmu_driver.intercept(now, line_spa)
    if intercepted is not None:
        return intercepted
    return hmc.handle_request(now, line_spa, False, pid, RequestKind.PTE)


def reference_evict_coldest(hpt):
    """The strict-``<`` scan: the first minimal-count page goes.

    The scan never reads the table's count-1 index; it only drops the
    victim from it, so the index stays what every other mutation of the
    table expects.
    """
    coldest_page = None
    coldest_count = None
    for page, count in hpt._counters.items():
        if coldest_count is None or count < coldest_count:
            coldest_page, coldest_count = page, count
    if coldest_page is not None:
        del hpt._counters[coldest_page]
        hpt._ones.pop(coldest_page, None)
        if hpt.on_event is not None:
            hpt.on_event("evict", coldest_page)


def count_one_pages(hpt):
    """What the HPT's count-1 index must hold: its count-1 pages in
    table order."""
    return [page for page, count in hpt._counters.items() if count == 1]


def set_counters(hpt, counts):
    """Overwrite an HPT's counters in the given order and rebuild its
    count-1 index to match."""
    hpt._counters.clear()
    hpt._counters.update(counts)
    hpt._ones = dict.fromkeys(count_one_pages(hpt))


def reference_walk(walker, now, page_table, vpn):
    """A page walk as the PWC/page-table methods spell it."""
    pid = page_table.pid
    stats = walker.stats
    entry_addresses = page_table.entry_addresses(vpn)
    target_ppn = page_table.translate(vpn)
    pte_line_spa = entry_addresses[3] >> LINE_SHIFT
    time = now + walker.pwc_latency_cycles
    start_level = walker.pwc.deepest_hit(pid, vpn) + 1
    if start_level > 0:
        stats.add(f"walk/pwc_hits_level{start_level - 1}")
    pte_reached_memory = False
    levels_fetched = 0
    for level in range(start_level, 4):
        is_pte = level == 3
        if is_pte and walker._mmu_hint is not None:
            walker._mmu_hint(time, pte_line_spa, pid, vpn, target_ppn)
        line = entry_addresses[level] >> LINE_SHIFT
        outcome = walker.hierarchy.access(
            walker.core_id, line, is_write=False, cacheable_l1=False
        )
        time += outcome.latency_cycles
        if outcome.llc_miss:
            if is_pte:
                pte_reached_memory = True
                stats.add("walk/pte_llc_misses")
            time = walker._memory_fetch(
                time, line, False, is_pte, target_ppn if is_pte else None, pid
            )
        for dirty_line in outcome.writebacks:
            walker._memory_fetch(time, dirty_line, True, False, None, pid)
        levels_fetched += 1
        if not is_pte:
            walker.pwc.fill(pid, vpn, level)
    stats.add("walk/walks")
    stats.add("walk/pte_requests")
    stats.observe("walk/latency", time - now)
    return WalkResult(
        target_ppn, time, time - now, pte_line_spa, levels_fetched, pte_reached_memory
    )


def use_reference_helpers(hmc):
    """Route a controller's request path and helper calls through the
    reference methods."""
    hmc.handle_request = functools.partial(reference_handle_request, hmc)
    hmc._pctc_fill_from_pct = functools.partial(reference_pctc_fill, hmc)
    hmc._writeback_filter_entry = functools.partial(reference_writeback, hmc)
    for hpt in (hmc.dram_hpt, hmc.nvm_hpt):
        hpt._evict_coldest = functools.partial(reference_evict_coldest, hpt)


# -- state snapshots ----------------------------------------------------------


def _device_state(device):
    return (
        list(device._bank_demand_until), list(device._bank_any_until),
        list(device._bank_total_busy), list(device._bus_demand_until),
        list(device._bus_any_until), list(device._bus_total_busy),
        list(device._open_rows), list(device._row_written),
        device.reads, device.writes, device.row_hits,
        device.queue_delay_total, device.service_time_total,
    )


def controller_state(hmc):
    """Everything the request and hint paths can touch, LRU order included."""
    flt = hmc.filter
    driver = hmc.swap_driver
    return {
        "stats": hmc.stats.snapshot_full(),
        "prtc": (list(hmc.prtc._resident), hmc.prtc.hits, hmc.prtc.misses,
                 hmc.prtc.fills),
        "pctc": (list(hmc.pctc._resident.items()), dict(hmc.pctc._changed),
                 hmc.pctc.hits, hmc.pctc.misses, hmc.pctc.writes),
        "pct": dict(hmc.pct._entries),
        "filter": (list(flt._entries.items()), dict(flt._current_leader),
                   dict(flt._previous_leader), flt.reads, flt.writes),
        "driver": list(hmc.mmu_driver._lines.items()),
        "hpt": [
            (list(hpt._counters.items()), list(hpt._ones), hpt.reads,
             hpt.writes, hpt.next_decay)
            for hpt in (hmc.dram_hpt, hmc.nvm_hpt)
        ],
        "swaps": (list(driver.records), dict(driver.partial_residue),
                  dict(driver.line_usage), dict(hmc._prefetch_live)),
        "prt": sorted(hmc.prt.entries()),
        "serviced": (hmc._total_serviced, hmc._dram_serviced),
        "dram": _device_state(hmc.memory.dram),
        "nvm": _device_state(hmc.memory.nvm),
    }


# -- the controller harness ---------------------------------------------------

_FAULTS = dict(
    enabled=True, nvm_uncorrectable_rate=0.002, transient_rate=0.02,
    transfer_fault_rate=0.02,
)


def make_controller(correlation, faults, hints=True, counter_bits=6, partial=False):
    config = default_system_config(scale=1024, cores=2)
    config = dataclasses.replace(
        config,
        pageseer=dataclasses.replace(
            config.pageseer,
            correlation_enabled=correlation,
            mmu_hints_enabled=hints,
            counter_bits=counter_bits,
            partial_swaps_enabled=partial,
            pct_prefetch_threshold=2,
            hpt_swap_threshold=3,
            prtc_entries=8,
            prtc_ways=4,
            pctc_entries=4,
            pctc_ways=4,
            hpt_entries=3,
            filter_entries=2,
            mmu_driver_pte_lines=2,
            bandwidth_heuristic_enabled=False,
        ),
    )
    if faults:
        config = dataclasses.replace(
            config, faults=dataclasses.replace(config.faults, **_FAULTS)
        )
    return PageSeerHmc(config, OsModel(config.memory), StatsRegistry())


def _page(hmc, choice):
    """Map a drawn index onto DRAM pages (low) and NVM pages (high)."""
    kind, index = choice
    if kind == "dram":
        # The top DRAM pages; the metadata region sits at the bottom.
        return hmc.dram_pages - 1 - index
    return hmc.dram_pages + index


# A small page universe and a handful of PTE-line offsets make repeat
# hints, intercept hits, flurries and history thresholds common.
_pages = st.tuples(st.sampled_from(["dram", "nvm"]), st.integers(0, 5))
_pte_offsets = st.integers(0, 3)
_controller_ops = st.lists(
    st.one_of(
        st.tuples(st.just("hint"), _pages, _pte_offsets, _pages, st.integers(1, 2)),
        st.tuples(st.just("demand"), _pages, st.integers(0, 63), st.booleans(),
                  st.integers(1, 2)),
        st.tuples(st.just("pte"), _pages, _pte_offsets, st.integers(1, 2)),
        st.tuples(st.just("wait"), st.integers(0, 400_000)),
    ),
    min_size=20,
    max_size=150,
)


@settings(max_examples=100, deadline=None)
@given(
    ops=_controller_ops, correlation=st.booleans(), faults=st.booleans(),
    counter_bits=st.sampled_from([2, 6]), partial=st.booleans(),
)
def test_flattened_controller_matches_method_reference(
    ops, correlation, faults, counter_bits, partial
):
    """``handle_request``, ``mmu_hint`` and ``handle_pte_fetch`` against
    the methods they copy.  2-bit counters (saturating at 3) make every
    HPT, Filter and PCT counter saturate; partial swaps add the
    line-usage bitmaps and residue migrations."""
    flat = make_controller(correlation, faults, counter_bits=counter_bits,
                           partial=partial)
    ref = make_controller(correlation, faults, counter_bits=counter_bits,
                          partial=partial)
    use_reference_helpers(ref)
    now = 0
    for op in ops:
        now += 7
        if op[0] == "hint":
            _, pte_page, offset, target, pid = op
            line = _page(flat, pte_page) * LINES_PER_PAGE + offset
            target_ppn = _page(flat, target)
            flat.mmu_hint(now, line, pid, 0, target_ppn)
            reference_mmu_hint(ref, now, line, pid, 0, target_ppn)
        elif op[0] == "demand":
            _, page, offset, is_write, pid = op
            line = _page(flat, page) * LINES_PER_PAGE + offset
            assert flat.handle_request(now, line, is_write, pid) == ref.handle_request(
                now, line, is_write, pid
            )
        elif op[0] == "pte":
            _, page, offset, pid = op
            line = _page(flat, page) * LINES_PER_PAGE + offset
            assert flat.handle_pte_fetch(now, line, None, pid) == reference_pte_fetch(
                ref, now, line, None, pid
            )
        else:
            now += op[1]
        assert controller_state(flat) == controller_state(ref)
        # Both sides touch the HPTs through the same inline code, so
        # the index is also checked against its definition.
        for hpt in (flat.dram_hpt, flat.nvm_hpt):
            assert list(hpt._ones) == count_one_pages(hpt)
    flat.finalize(now)
    ref.finalize(now)
    assert controller_state(flat) == controller_state(ref)


_counts = st.integers(0, 4)  # around the threshold of 2
_followers = st.sampled_from([None, 40, 41])


@settings(max_examples=300, deadline=None)
@given(
    base=st.tuples(_counts, _followers, _counts),
    current=st.tuples(_counts, _counts, _followers, _counts),
    resident=st.lists(st.sampled_from([30, 31, 32, 33, 34]), max_size=4),
    correlation=st.booleans(),
)
def test_filter_writeback_matches_method_reference(base, current, resident, correlation):
    """Every threshold crossing of the write-back's change bit, directly."""
    flat = make_controller(correlation, faults=False)
    ref = make_controller(correlation, faults=False)
    for hmc in (flat, ref):
        for page in resident:
            hmc.pctc.fill(page, PctEntry(page % 3))
    misses, follower_misses, new_follower, new_follower_misses = current
    for page in (30, 35):  # resident (when drawn) and never resident

        def entry():
            return FilterEntry(
                page=page, pid=1, base=PctEntry(*base), misses=misses,
                follower_misses=follower_misses, new_follower_ppn=new_follower,
                new_follower_misses=new_follower_misses,
            )

        flat._writeback_filter_entry(0, entry())
        reference_writeback(ref, 0, entry())
        assert controller_state(flat) == controller_state(ref)


def test_hints_disabled_touch_nothing():
    flat = make_controller(correlation=True, faults=False, hints=False)
    before = controller_state(flat)
    flat.mmu_hint(10, flat.dram_pages * LINES_PER_PAGE, 1, 0, flat.dram_pages)
    assert controller_state(flat) == before


# -- the walk harness ---------------------------------------------------------


def make_system(correlation):
    def mutate(config):
        return dataclasses.replace(
            config,
            pwc_entries_per_level=2,
            pageseer=dataclasses.replace(
                config.pageseer,
                correlation_enabled=correlation,
                pct_prefetch_threshold=2,
                pctc_entries=4,
                pctc_ways=4,
                mmu_driver_pte_lines=2,
            ),
        )

    return build_system(
        "pageseer", workload_by_name("mcfx8"), scale=1024, seed=0,
        config_mutator=mutate,
    )


def walk_state(system):
    walkers = [core.mmu.walker for core in system.cores]
    return {
        "stats": system.stats.snapshot_full(),
        "pwc": [[list(level) for level in w.pwc._levels] for w in walkers],
        "l2": [
            [list(entries.items()) for entries in cache._sets]
            for cache in system.hierarchy.l2
        ],
        "l3": [list(entries) for entries in system.hierarchy.l3._sets],
        "hmc": controller_state(system.hmc),
    }


#: First VPN of the synthetic workloads' heap, where every test VPN lives.
HEAP_FIRST_VPN = synthetic.HEAP_BASE >> PAGE_SHIFT

#: VPN offsets spanning several PMD (2 MB) and PUD (1 GB) regions, so the
#: two-entry PWC levels hit, miss and evict.
_vpn_offsets = st.sampled_from(
    [0, 1, 2, 511, 512, 1025, 1 << 18, (1 << 18) + 3, (2 << 18) + 512, 5 << 18]
)
_walk_ops = st.lists(st.tuples(st.integers(0, 1), _vpn_offsets), min_size=10, max_size=60)


@settings(max_examples=40, deadline=None)
@given(ops=_walk_ops, correlation=st.booleans())
def test_flattened_walk_matches_method_reference(ops, correlation):
    flat = make_system(correlation)
    ref = make_system(correlation)
    use_reference_helpers(ref.hmc)
    for core in ref.cores:
        core.mmu.walker._mmu_hint = functools.partial(reference_mmu_hint, ref.hmc)
    now = 0
    for core_id, offset in ops:
        now += 50
        results = []
        for system, walk in (
            (flat, lambda w, pt, vpn: w.walk(now, pt, vpn)),
            (ref, lambda w, pt, vpn: reference_walk(w, now, pt, vpn)),
        ):
            core = system.cores[core_id]
            page_table = core.process.page_table
            vpn = HEAP_FIRST_VPN + offset
            page_table.ensure_mapped(vpn)
            result = walk(core.mmu.walker, page_table, vpn)
            results.append(
                (result.ppn, result.finish, result.latency, result.pte_line_spa,
                 result.levels_fetched, result.pte_reached_memory)
            )
        assert results[0] == results[1]
        assert walk_state(flat) == walk_state(ref)


def test_walk_lines_memo_equals_entry_addresses():
    """walk_lines(vpn) is entry_addresses(vpn) at line granularity, for
    every mapped VPN, and a memo hit returns the stored tuple."""
    system = make_system(correlation=True)
    system.run(200, 200)
    for core in system.cores:
        page_table = core.process.page_table
        mapped = [
            vpn for vpn in range(HEAP_FIRST_VPN, HEAP_FIRST_VPN + (1 << 16))
            if page_table._vpn_cache.get(vpn) is not None
        ]
        assert mapped, "the run must have mapped pages"
        walked = set(page_table._walk_lines)
        assert walked and walked <= set(mapped)
        for vpn in mapped:
            expected = tuple(a >> LINE_SHIFT for a in page_table.entry_addresses(vpn))
            assert page_table.walk_lines(vpn) == expected
            assert page_table._walk_lines[vpn] is page_table.walk_lines(vpn)


# -- HPT eviction order ---------------------------------------------------------


class TestHptEvictionTieBreak:
    """_evict_coldest removes the first minimal-count page in table order."""

    @staticmethod
    def _table(counts):
        hpt = HotPageTable(len(counts), counter_max=63, decay_interval_cycles=0)
        events = []
        hpt.on_event = lambda kind, page: events.append((kind, page))
        for page, count in counts:
            for _ in range(count):
                hpt.record_miss(0, page)
        return hpt, events

    def test_all_tied_evicts_first_in_table_order(self):
        hpt, events = self._table([(10, 1), (11, 1), (12, 1)])
        hpt.record_miss(0, 13)
        assert events == [("evict", 10)]
        assert hpt.pages() == [11, 12, 13]

    def test_tie_above_one_evicts_first_minimum(self):
        hpt, events = self._table([(10, 3), (11, 2), (12, 2), (13, 4)])
        hpt.record_miss(0, 14)
        assert events == [("evict", 11)]

    def test_single_one_after_larger_counts(self):
        hpt, events = self._table([(10, 3), (11, 5), (12, 1), (13, 1)])
        hpt.record_miss(0, 14)
        assert events == [("evict", 12)]

    def test_touch_order_decides_ties(self):
        # Re-touching a page moves it to the end of the table order.
        hpt, events = self._table([(10, 2), (11, 2)])
        hpt.record_miss(0, 10)  # 10 -> 3, now last
        set_counters(hpt, [(11, 2), (10, 2)])  # back to a tie, order (11, 10)
        hpt.record_miss(0, 12)
        assert events == [("evict", 11)]

    @settings(max_examples=80, deadline=None)
    @given(counts=st.lists(st.integers(1, 63), min_size=1, max_size=16))
    def test_matches_strict_scan(self, counts):
        hpt = HotPageTable(len(counts), 63, 0)
        reference = HotPageTable(len(counts), 63, 0)
        set_counters(hpt, enumerate(counts))
        set_counters(reference, enumerate(counts))
        hpt._evict_coldest()
        reference_evict_coldest(reference)
        assert list(hpt._counters.items()) == list(reference._counters.items())
        assert list(hpt._ones) == list(reference._ones) == count_one_pages(hpt)
