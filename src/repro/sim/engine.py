"""The simulation loop: :meth:`repro.sim.system.System.run` runs here.

The reference semantics are a one-op-at-a-time heap scheduler: pop the
core with the smallest ``(clock, core_id)``, run its next op through
:meth:`repro.sim.cpu.Core.execute`, re-queue it.  That pays the full
Python dispatch chain — op fetch, ``ensure_mapped``, MMU translate,
hierarchy access, per-op result objects — for *every* operation, even
though most of them are pure L1-TLB + L1/L2-cache hits that mutate
nothing outside one core.  This engine produces the identical result
while consuming the stream chunk-wise: one prep pass lifts each
:class:`repro.workloads.chunks.OpChunk` into flat per-op columns (VPN,
line number, set indices, tags, clock advance), then a slim per-op
loop drains the *pure prefix* of the chunk against the struct-of-arrays
TLB/cache models (:class:`repro.vm.tlb.SoaTlb`,
:class:`repro.cache.cache.SoaCache`).
Shared ops run at their exact global order, inline from the prepped
columns: cache-miss shapes (dirty L2-hit victims, L1+L2 misses reaching
the L3 or memory) replay the scalar path's mutations, and *translation*
turns (L1-TLB misses and first-touch pages) map the page, probe the L2
TLB, call the page walker on a miss, fill both TLBs, and then serve the
data line through the same cache shapes.  The walker, the MMU hint it
fires and the controller's request path stay calls into their own
layers; no op leaves the engine for ``Core.execute``.

Equivalence contract (enforced by the pinned goldens and by
tests/integration/test_engine_equivalence.py, which runs the heap
scheduler from tests/reference_scheduler.py as the oracle):

1. **Op classification.**  An op is *pure* when it hits the L1 TLB and
   then either hits the L1 cache, or hits the L2 cache with a clean (or
   absent) L1 victim.  A pure op touches only the owning core's state —
   its TLB/L1/L2 LRU ages, dirty bits, clock, and op counts — plus
   global stats counters.  Every other op is *shared*: it reaches the
   walker, the shared L3, or the memory controller.  The prep pass
   resolves VPN→PPN through the page table's flat VPN cache *at prep
   time*; an op whose page is unmapped at that point is classified
   shared conservatively (pure ops commute, and a first touch is a walk
   anyway).
2. **Ordering.**  Pure ops of one core commute with every op of every
   other core: disjoint mutable state, and the counters they touch are
   pure event counts (each update is ``+= 1.0``, and the engine's
   deferred ``+= float(k)`` flush equals k unit increments exactly for
   integer-valued floats below 2^53).  Shared ops are the only ops
   whose relative order matters, and the reference heap executes them
   exactly in sorted ``(clock-at-op, core_id)`` order (a k-way merge of
   per-core increasing key sequences).  The engine therefore lets each
   core free-run through pure ops and parks it in a heap, keyed by its
   pending shared op, so shared ops replay the reference order
   bit-for-bit.  Per-core clock evolution — and hence every shared-op
   key — depends only on the outcomes of earlier shared ops, which are
   identical by induction.
3. **Hit and miss semantics.**  The inline paths replicate the scalar
   paths' mutations exactly, in kind and in floating-point order: LRU
   touches are stores of the same strictly-increasing age counters the
   SoA models' methods use, clock advances are the same float adds in
   the same sequence (work advance, then the walk latency as one int
   sum, then the stall division), and the L3's and the L2 TLB's
   ``OrderedDict`` operations (``move_to_end``, LRU-first ``popitem``)
   are performed verbatim at the op's global turn.  Classification
   probes (way-dict ``get``, age ``argmin``, victim dirty-bit peek) are
   non-mutating, and a core's private TLB/L1/L2 membership cannot change
   while it is parked (only its own walks and fills mutate them), so
   drain-time classifications stay valid at the ordered turn.  A
   translation turn classifies its data line only after the walk, whose
   page-table lines fill this core's L2.  The TLB fills skip the hit
   check of :meth:`repro.vm.tlb.Tlb.fill` / :meth:`repro.vm.tlb.SoaTlb.fill`:
   the probes just missed.  ``ensure_mapped`` is skipped on TLB hits: a
   VPN can only enter a TLB via a walk, walks only happen for mapped
   VPNs, and mappings are never removed.
4. **Checkpoints.**  Core-local state (clock, instructions, op counts)
   is flushed from locals to the object graph before every checkpointer
   poll, and stream consumption moves through the one public
   :meth:`repro.snapshot.stream.ReplayStream.advance` path.  Each
   runner keeps its chunk cursor in locals and peeks the stream only
   when the chunk is used up; executed ops (drained pure prefixes and
   shared ops alike) accumulate in a local count that is flushed
   through ``advance`` before the next peek, before every checkpointer
   poll, at every park while a checkpointer is armed (another core's
   poll may serialize this stream), and on exit.  A
   fetched-but-unexecuted shared op is *never* advanced.  So every poll
   sees every core's stream at its between-ops frontier, and a
   checkpoint written mid-chunk resumes to the identical final digest (the
   per-phase op *sets* are fixed by the absolute targets, and shared
   order is preserved, so the end state cannot depend on where the cut
   landed).  Deterministic triggers (cut points, periodic writes) fire
   at exactly their configured step counts via
   :meth:`repro.snapshot.hooks.Checkpointer.next_trigger_step`; signal
   polls (wall-clock, inherently nondeterministic) happen every
   :data:`_POLL_STEPS` steps, aligned to the heartbeat mask so liveness
   heartbeats keep their cadence.

See docs/PERFORMANCE.md ("Array-native streams", "Walks at engine
speed", "Misses at table speed") for the measured speedups and
docs/TESTING.md for the differential-harness workflow.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.common.addr import LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT
from repro.sim.cpu import _STORE_STALL_FRACTION
from repro.sim.hmc_base import DEMAND, WRITEBACK

_PAGE_MASK = PAGE_BYTES - 1

#: Steps between checkpointer polls when no cut point or periodic write
#: is due sooner.  Poll steps are multiples of this value so the
#: checkpointer's ``steps & 0xFF == 0`` heartbeat condition still fires.
_POLL_STEPS = 256


# repro-hot
def _prep_chunk(chunk, vpn_cache, base_cpi, l1_nsets, l2_nsets, l3_nsets) -> Tuple:
    """Lift one chunk into flat per-op columns (the one per-chunk pass).

    Everything the drain loop indexes per op is computed here, once per
    chunk, as plain Python lists of exact ``int``/``float`` elements.
    The last column is the sorted list of op indices whose pages were
    unmapped at prep time.  It is far from empty on first-touch streams:
    at paper sizing it holds 36% of the ops of the pageseer/lbmx4 job,
    4% of the milcx4 report's and 1% of pageseer/mcfx8's.  Those ops'
    line/set/tag entries are ``-1``-derived junk until the drain loop
    re-resolves them when it *reaches* them (an earlier translation turn
    may have mapped the page by then) — precomputing the unmapped
    indices keeps the mapped-ness check off the per-op fast path.  A
    genuine first touch becomes a translation turn, which maps the page
    and walks it.

    The VPN→PPN resolution is against the page table's *immutable*
    mapping (entries are only ever added), so prepping ahead of
    execution cannot observe stale translations — only absent ones,
    which the unmapped index list handles conservatively.
    """
    get = vpn_cache.get
    vaddrs = chunk.vaddrs
    vpns = [vaddr >> PAGE_SHIFT for vaddr in vaddrs]
    lines = []
    unmapped = []
    # This loop is the per-chunk pass RL005 sends hot consumers to.
    # repro-lint: disable=RL005
    for index, (vaddr, vpn) in enumerate(zip(vaddrs, vpns)):
        ppn = get(vpn)
        if ppn is None:
            lines.append(-1)
            unmapped.append(index)
        else:
            lines.append(((ppn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)) >> LINE_SHIFT)
    works = [instructions + 1 for instructions in chunk.instr]
    # Exclusive prefix sum of per-op work: the drain loop charges a
    # whole segment with cumw[end] - cumw[start] (integer adds regroup
    # exactly, unlike the per-op float clock advances).
    cumw = [0]
    total = 0
    for work in works:
        total += work
        cumw.append(total)
    return (
        vpns,
        lines,
        [line % l1_nsets for line in lines],
        [line // l1_nsets for line in lines],
        [line % l2_nsets for line in lines],
        [line // l2_nsets for line in lines],
        [line % l3_nsets for line in lines],
        [line // l3_nsets for line in lines],
        cumw,
        [work * base_cpi for work in works],
        unmapped,
    )


def _core_context(core) -> Tuple:
    """Hoist one core's fast-path invariants into a flat tuple.

    Everything here is fixed for the core's lifetime (the same
    invariants ``Core.__init__`` hoists for the scalar path): the SoA
    TLB/cache internals the drain loop reads and writes directly, the
    L2 TLB's and the shared L3's per-set ``OrderedDict`` lists for the
    inline translation and miss turns, the page table and walker a
    translation turn calls, and the stream.  ``hmc.handle_request`` is
    deliberately *not* here: the sanitizer and the analysis probes
    rebind it on the instance, so the engine re-reads it around
    controller calls.
    """
    mmu = core.mmu
    l1_tlb = mmu.l1_tlb
    l2_tlb = mmu.l2_tlb
    hierarchy = core.hierarchy
    l1 = hierarchy.l1[core.core_id]
    l2 = hierarchy.l2[core.core_id]
    l3 = hierarchy.l3
    page_table = core._page_table
    # The scalar L2-hit stall is outcome.latency_cycles / mlp where
    # latency_cycles == l1_latency + l2_latency: same ints, same single
    # float division, so the precomputed value is bit-identical.  The
    # L3-hit stall and the LLC-miss lookup latency follow the same
    # argument with l3_latency added.
    lat12 = hierarchy._l1_latency + hierarchy._l2_latency
    lat123 = lat12 + hierarchy._l3_latency
    mlp = core._mlp
    return (
        core.ops,
        page_table,
        page_table._vpn_cache,
        page_table.ensure_mapped,
        mmu.walker.walk,
        l1_tlb._way_of,
        l1_tlb._keys,
        l1_tlb._ppns,
        l1_tlb._ages,
        l1_tlb._age,
        l1_tlb.num_sets,
        l1_tlb.ways,
        l2_tlb._sets,
        l2_tlb.num_sets,
        l2_tlb.ways,
        # Translate's walk latency base: the L1 and L2 TLB probes.
        mmu._l1_latency + mmu._l2_latency,
        l1._way_of,
        l1._tags,
        l1._dirty,
        l1._ages,
        l1._age,
        l1.num_sets,
        l1.ways,
        l2._way_of,
        l2._tags,
        l2._dirty,
        l2._ages,
        l2._age,
        l2.num_sets,
        l2.ways,
        l3._sets,
        l3.num_sets,
        l3.ways,
        core._pid,
        core._base_cpi,
        lat12 / mlp,
        lat123 / mlp,
        lat123,
        mlp,
    )


def _next_stop(ckpt, steps: int) -> int:
    """First step count at which the engine must pause for the checkpointer."""
    stop = (steps // _POLL_STEPS + 1) * _POLL_STEPS
    trigger = ckpt.next_trigger_step()
    if trigger is not None and trigger < stop:
        # A trigger at or below the current step fires at the next poll
        # opportunity (the reference loop fires such stale cuts on its
        # next step too).
        stop = trigger if trigger > steps else steps
    return stop


# repro-hot
def _core_runner(system, core, target, heap, counters, ckpt, steps_cell, stop_cell):
    """One core's free-run coroutine (see :func:`run_to_targets`).

    All of the core's hot state — the object-graph mirrors (clock,
    instruction and op counts), the prepared chunk columns, and the
    in-flight shared-op descriptor — lives in this generator's locals
    across parks, so a park/resume cycle costs one ``yield`` instead of
    re-hoisting the core's context and re-unpacking the chunk columns
    per segment.  The runner yields its clock when a shared op must
    wait for the global ``(clock, core_id)`` turn; the driver resumes
    it when it reaches the heap front.  Core attributes are flushed
    before every yield, poll, and controller call, so anything that
    observes the object graph mid-run (checkpointer, sanitizer) sees a
    consistent between-ops frontier.  The global step count and the
    next planned stop live in shared one-element cells: every runner
    advances them, and whichever runner crosses the poll boundary
    re-plans the stop for all.
    """
    (
        stream,
        page_table,
        vpn_cache,
        ensure_mapped,
        walk,
        t_way_of,
        t_keys,
        t_ppns,
        t_ages,
        t_age_cell,
        tlb_nsets,
        tlb_ways,
        l2t_sets,
        l2t_nsets,
        l2t_ways,
        tlb_lat12,
        l1_way_of,
        l1_tags,
        l1_dirty,
        l1_ages,
        l1_age_cell,
        l1_nsets,
        l1_ways,
        l2_way_of,
        l2_tags,
        l2_dirty,
        l2_ages,
        l2_age_cell,
        l2_nsets,
        l2_ways,
        l3_sets,
        l3_nsets,
        l3_ways,
        pid,
        base_cpi,
        l2_stall,
        l3_stall,
        lat123,
        mlp,
    ) = _core_context(core)
    core_id = core.core_id
    clock = core.clock
    instructions = core.instructions
    ops_executed = core.ops_executed
    #: In-flight shared-op kind: 0 = none, 2 = L2 hit (the drain loop
    #: sends one only when its L1 fill evicts a dirty victim), 3 = L1+L2
    #: miss (L3 hit or memory), 4 = translation turn (L1-TLB miss or
    #: first touch).  Every kind carries the op's chunk-column index in
    #: ``idx``.
    kind = 0
    idx = 0
    #: The chunk cursor: the column index of this core's next
    #: unexecuted op (``chunk_len`` once the chunk is used up, so the
    #: next segment peeks), and the executed ops not yet advanced through
    #: the stream (flushed at the points contract 4 lists).
    pos = chunk_len = pending = 0
    #: The L1-TLB run: the page of the last TLB probe that hit (or of
    #: the last fill), with its set's age list and way.  Only a
    #: translation turn fills this core's L1 TLB (pure ops and the
    #: cache-miss turns only touch ages), and it re-seeds the run to the
    #: entry it filled, so the run outlives segments and shared turns.
    run_vpn = -1
    run_ages = None
    run_way = -1
    try:
        while True:
            if steps_cell[0] == stop_cell[0]:
                # Checkpoint boundary (or signal poll): flush locals so
                # the serialized graph is a consistent between-ops
                # frontier, poll, re-plan.
                core.clock = clock
                core.instructions = instructions
                core.ops_executed = ops_executed
                if pending:
                    stream.advance(pending)
                    pending = 0
                system.steps_total = steps_cell[0]
                ckpt.on_step(system)
                stop_cell[0] = _next_stop(ckpt, steps_cell[0])
            if kind:
                # A shared op at its global turn.  Commit its work and
                # flush the view Core.execute gives controller calls
                # (instructions committed, clock not yet advanced), then
                # advance the clock by the op's base-CPI work.
                instructions += cumw[idx + 1] - cumw[idx]
                core.instructions = instructions
                core.clock = clock
                core.ops_executed = ops_executed
                clock += advs[idx]
                if kind == 4:
                    # Translation turn, in Mmu.translate's order: the L2
                    # TLB probe, a walk on a miss, the TLB fills, then
                    # the data line through the cache shapes below.
                    vpn = vpns[idx]
                    if lines[idx] < 0:
                        # First touch: map the page now (frames are
                        # allocated in global order) and derive the op's
                        # columns as the drain loop's re-resolve does.
                        line = (
                            (ensure_mapped(vpn) << PAGE_SHIFT)
                            | (vaddrs[idx] & _PAGE_MASK)
                        ) >> LINE_SHIFT
                        lines[idx] = line
                        l1sets[idx] = line % l1_nsets
                        l1tags[idx] = line // l1_nsets
                        l2sets[idx] = line % l2_nsets
                        l2tags[idx] = line // l2_nsets
                        l3sets[idx] = line % l3_nsets
                        l3tags[idx] = line // l3_nsets
                    key = (pid, vpn)
                    entries_t2 = l2t_sets[vpn % l2t_nsets]
                    ppn = entries_t2.get(key)
                    if ppn is not None:
                        entries_t2.move_to_end(key)
                        counters["tlb/l2_hits"] += 1.0
                    else:
                        counters["tlb/misses"] += 1.0
                        walked = walk(int(clock) + tlb_lat12, page_table, vpn)
                        ppn = walked.ppn
                        # One int sum, one float add: translate's latency.
                        clock += tlb_lat12 + walked.latency
                        # L2-TLB fill (the key is absent: the probe missed).
                        if len(entries_t2) >= l2t_ways:
                            entries_t2.popitem(last=False)
                        entries_t2[key] = ppn
                    # L1-TLB fill (absent too), re-seeding the run to the
                    # filled entry: the fill may have evicted the old one.
                    tidx = vpn % tlb_nsets
                    tways = t_way_of[tidx]
                    tkeys = t_keys[tidx]
                    run_ages = t_ages[tidx]
                    if len(tways) >= tlb_ways:
                        run_way = run_ages.index(min(run_ages))
                        del tways[tkeys[run_way]]
                    else:
                        run_way = tkeys.index(None)
                    tways[key] = run_way
                    tkeys[run_way] = key
                    t_ppns[tidx][run_way] = ppn
                    run_ages[run_way] = t_age_cell[0]
                    t_age_cell[0] += 1
                    run_vpn = vpn
                    # Classify the data line now: the walk's page-table
                    # lines may have filled (and evicted from) the L2.
                    set1 = l1sets[idx]
                    way1 = l1_way_of[set1].get(l1tags[idx])
                    if way1 is not None:
                        # L1 hit: LRU touch and dirty bit, no stall.
                        l1_ages[set1][way1] = l1_age_cell[0]
                        l1_age_cell[0] += 1
                        if writes[idx]:
                            l1_dirty[set1][way1] = True
                        counters["cache/l1_hits"] += 1.0
                        kind = 0
                    elif l2tags[idx] in l2_way_of[l2sets[idx]]:
                        kind = 2
                    else:
                        kind = 3
                else:
                    # TLB L1 hit, through the run the drain loop probed
                    # this op's page into.
                    run_ages[run_way] = t_age_cell[0]
                    t_age_cell[0] += 1
                    counters["tlb/l1_hits"] += 1.0
                if kind == 2:
                    # L2 hit: the L2 touch, then the L1 fill.  A dirty L1
                    # victim (always, for ops the drain loop sends here)
                    # is the one shared effect: its write-back goes to
                    # the controller.  The classification probes are
                    # still valid: only other cores ran since, and they
                    # cannot touch this core's TLB/L1/L2.
                    is_write = writes[idx]
                    set2 = l2sets[idx]
                    way2 = l2_way_of[set2][l2tags[idx]]
                    l2_ages[set2][way2] = l2_age_cell[0]
                    l2_age_cell[0] += 1
                    if is_write:
                        l2_dirty[set2][way2] = True
                    counters["cache/l2_hits"] += 1.0
                    set1 = l1sets[idx]
                    ways1 = l1_way_of[set1]
                    ages1 = l1_ages[set1]
                    tags1 = l1_tags[set1]
                    dirty1 = l1_dirty[set1]
                    wb_l1 = -1
                    if len(ways1) >= l1_ways:
                        vway = ages1.index(min(ages1))
                        vtag = tags1[vway]
                        if dirty1[vway]:
                            wb_l1 = vtag * l1_nsets + set1
                        del ways1[vtag]
                    else:
                        vway = tags1.index(-1)
                    tag1 = l1tags[idx]
                    ways1[tag1] = vway
                    tags1[vway] = tag1
                    dirty1[vway] = is_write
                    ages1[vway] = l1_age_cell[0]
                    l1_age_cell[0] += 1
                    clock += l2_stall
                    if wb_l1 >= 0:
                        # Scalar order: the clock is updated before
                        # write-backs drain (the sanitizer may read it).
                        core.clock = clock
                        core.hmc.handle_request(
                            int(clock), wb_l1, True, pid, WRITEBACK
                        )
                elif kind == 3:
                    # L1+L2 miss: the shared L3 probe at exactly this
                    # point in global order, the L2/L1 fills, the demand
                    # request on an LLC miss, and the victim write-backs.
                    now = int(clock)
                    line = lines[idx]
                    is_write = writes[idx]
                    set3 = l3sets[idx]
                    entries3 = l3_sets[set3]
                    tag3 = l3tags[idx]
                    wb_l3 = wb_l2 = wb_l1 = -1
                    if tag3 in entries3:
                        entries3.move_to_end(tag3)
                        if is_write:
                            entries3[tag3] = True
                        counters["cache/l3_hits"] += 1.0
                        llc_miss = False
                    else:
                        counters["cache/llc_misses"] += 1.0
                        if len(entries3) >= l3_ways:
                            vtag3, vdirty3 = entries3.popitem(last=False)
                            if vdirty3:
                                wb_l3 = vtag3 * l3_nsets + set3
                        entries3[tag3] = False
                        llc_miss = True
                    # L2 fill (clean), then L1 fill (dirty on writes) — the
                    # scalar fill order.
                    set2 = l2sets[idx]
                    tag2 = l2tags[idx]
                    ways2 = l2_way_of[set2]
                    ages2 = l2_ages[set2]
                    tags2 = l2_tags[set2]
                    dirty2 = l2_dirty[set2]
                    if len(ways2) >= l2_ways:
                        vway = ages2.index(min(ages2))
                        vtag = tags2[vway]
                        if dirty2[vway]:
                            wb_l2 = vtag * l2_nsets + set2
                        del ways2[vtag]
                    else:
                        vway = tags2.index(-1)
                    ways2[tag2] = vway
                    tags2[vway] = tag2
                    dirty2[vway] = False
                    ages2[vway] = l2_age_cell[0]
                    l2_age_cell[0] += 1
                    set1 = l1sets[idx]
                    tag1 = l1tags[idx]
                    ways1 = l1_way_of[set1]
                    ages1 = l1_ages[set1]
                    tags1 = l1_tags[set1]
                    dirty1 = l1_dirty[set1]
                    if len(ways1) >= l1_ways:
                        vway = ages1.index(min(ages1))
                        vtag = tags1[vway]
                        if dirty1[vway]:
                            wb_l1 = vtag * l1_nsets + set1
                        del ways1[vtag]
                    else:
                        vway = tags1.index(-1)
                    ways1[tag1] = vway
                    tags1[vway] = tag1
                    dirty1[vway] = is_write
                    ages1[vway] = l1_age_cell[0]
                    l1_age_cell[0] += 1
                    hmc = core.hmc
                    if llc_miss:
                        finish = hmc.handle_request(
                            now + lat123, line, is_write, pid, DEMAND
                        )
                        memory_latency = finish - now
                        if is_write:
                            clock += memory_latency * _STORE_STALL_FRACTION / mlp
                        else:
                            clock += memory_latency / mlp
                    else:
                        clock += l3_stall
                    core.clock = clock
                    if wb_l3 >= 0 or wb_l2 >= 0 or wb_l1 >= 0:
                        wb_now = int(clock)
                        handle = hmc.handle_request
                        if wb_l3 >= 0:
                            handle(wb_now, wb_l3, True, pid, WRITEBACK)
                        if wb_l2 >= 0:
                            handle(wb_now, wb_l2, True, pid, WRITEBACK)
                        if wb_l1 >= 0:
                            handle(wb_now, wb_l1, True, pid, WRITEBACK)
                ops_executed += 1
                pending += 1
                pos = idx + 1
                kind = 0
                steps_cell[0] += 1
            # Free-run through pure (core-local) ops, one chunk prefix
            # at a time.
            while ops_executed < target:
                steps = steps_cell[0]
                stop_steps = stop_cell[0]
                if steps == stop_steps:
                    break
                if pos == chunk_len:
                    # The chunk is used up (or none is held yet): move
                    # the stream past it, then fetch and prep the next.
                    if pending:
                        stream.advance(pending)
                        pending = 0
                    peeked = stream.peek_chunk()
                    if peeked is None:
                        core.done = True
                        break
                    chunk, pos = peeked
                    (
                        vpns,
                        lines,
                        l1sets,
                        l1tags,
                        l2sets,
                        l2tags,
                        l3sets,
                        l3tags,
                        cumw,
                        advs,
                        unmapped,
                    ) = _prep_chunk(
                        chunk, vpn_cache, base_cpi, l1_nsets, l2_nsets, l3_nsets
                    )
                    writes = chunk.writes
                    vaddrs = chunk.vaddrs
                    chunk_len = chunk.length
                limit = pos + (target - ops_executed)
                if stop_steps >= 0 and stop_steps - steps < limit - pos:
                    limit = pos + (stop_steps - steps)
                if limit > chunk_len:
                    limit = chunk_len
                # Segment-local mirrors of the age counters and
                # deferred stats (written back at segment end, before
                # any shared turn can observe them).
                t_age = t_age_cell[0]
                l1_age = l1_age_cell[0]
                l2_age = l2_age_cell[0]
                n_l1 = n_l2 = 0
                i = pos
                # The next op index whose page was unmapped at prep
                # time (``limit`` when none remain ahead), found by
                # bisecting the sorted column: hoists the mapped-ness
                # check out of the per-op loop.
                nxt_un = limit
                if unmapped:
                    un_k = bisect_left(unmapped, i)
                    if un_k < len(unmapped) and unmapped[un_k] < limit:
                        nxt_un = unmapped[un_k]
                while i < limit:
                    if i == nxt_un:
                        # Unmapped at prep time — re-resolve: an
                        # earlier translation turn may have mapped the
                        # page by now (mappings are only added, so a
                        # hit here can never be stale).
                        ppn = vpn_cache.get(vpns[i])
                        if ppn is None:
                            kind = 4  # first touch: map and walk
                            break
                        line = (
                            (ppn << PAGE_SHIFT) | (vaddrs[i] & _PAGE_MASK)
                        ) >> LINE_SHIFT
                        lines[i] = line
                        l1sets[i] = line % l1_nsets
                        l1tags[i] = line // l1_nsets
                        l2sets[i] = line % l2_nsets
                        l2tags[i] = line // l2_nsets
                        l3sets[i] = line % l3_nsets
                        l3tags[i] = line // l3_nsets
                        # The column is sorted and duplicate-free, so
                        # the next unmapped op is the next entry.
                        nxt_un = limit
                        un_k += 1
                        if un_k < len(unmapped) and unmapped[un_k] < limit:
                            nxt_un = unmapped[un_k]
                    vpn = vpns[i]
                    if vpn != run_vpn:
                        # New page run: one TLB probe covers the whole
                        # run (no invalidations exist, and only
                        # translation turns mutate TLB membership).
                        tidx = vpn % tlb_nsets
                        tway = t_way_of[tidx].get((pid, vpn))
                        if tway is None:
                            kind = 4  # L1-TLB miss: translation turn
                            break
                        run_vpn = vpn
                        run_ages = t_ages[tidx]
                        run_way = tway
                    set1 = l1sets[i]
                    tag1 = l1tags[i]
                    ways1 = l1_way_of[set1]
                    way1 = ways1.get(tag1)
                    if way1 is not None:
                        # TLB-L1 + cache-L1 double hit: the scalar
                        # path's only mutations are two LRU touches,
                        # the dirty bit, two counters, and the base-CPI
                        # clock advance (stall is 0.0).
                        run_ages[run_way] = t_age
                        t_age += 1
                        l1_ages[set1][way1] = l1_age
                        l1_age += 1
                        if writes[i]:
                            l1_dirty[set1][way1] = True
                        n_l1 += 1
                        clock += advs[i]
                        i += 1
                        continue
                    way2 = l2_way_of[l2sets[i]].get(l2tags[i])
                    if way2 is None:
                        kind = 3  # L3 or memory traffic
                        break
                    ages1 = l1_ages[set1]
                    full = len(ways1) >= l1_ways
                    if full:
                        vway = ages1.index(min(ages1))
                        if l1_dirty[set1][vway]:
                            # The L1 fill would evict a dirty victim
                            # whose write-back reaches the controller:
                            # shared, but with a known shape — mark it
                            # for the inline ordered-turn path.  (The
                            # argmin and the dirty peek are
                            # non-mutating.)
                            kind = 2
                            break
                    # TLB-L1 hit + clean-victim cache-L2 hit: replicate
                    # translate's L1 hit, the L2 lookup hit, the L1
                    # fill, and the stalled advance.
                    run_ages[run_way] = t_age
                    t_age += 1
                    set2 = l2sets[i]
                    l2_ages[set2][way2] = l2_age
                    l2_age += 1
                    is_write = writes[i]
                    if is_write:
                        l2_dirty[set2][way2] = True
                    n_l2 += 1
                    tags1 = l1_tags[set1]
                    if full:
                        del ways1[tags1[vway]]
                    else:
                        vway = tags1.index(-1)
                    ways1[tag1] = vway
                    tags1[vway] = tag1
                    l1_dirty[set1][vway] = is_write
                    ages1[vway] = l1_age
                    l1_age += 1
                    clock += advs[i]
                    clock += l2_stall
                    i += 1
                # Segment end, when any pure op drained (a segment whose
                # first op is shared changed none of the mirrors): write
                # back age counters, flush deferred counters (+= float(k)
                # == k unit increments for integer-valued floats; every
                # pure op touches the TLB exactly once, so its count is
                # the drained count, n_l1 + n_l2), and move the cursor
                # past the drained pure prefix.
                drained = i - pos
                if drained:
                    t_age_cell[0] = t_age
                    l1_age_cell[0] = l1_age
                    l2_age_cell[0] = l2_age
                    counters["tlb/l1_hits"] += float(drained)
                    if n_l1:
                        counters["cache/l1_hits"] += float(n_l1)
                    if n_l2:
                        counters["cache/l2_hits"] += float(n_l2)
                    ops_executed += drained
                    steps_cell[0] = steps + drained
                    instructions += cumw[i] - cumw[pos]
                    pending += drained
                    pos = i
                if kind:
                    idx = i
                    break
            if kind == 0:
                # Target reached, stream done, or checkpoint boundary
                # with nothing in flight.
                if steps_cell[0] == stop_cell[0] and not core.done and (
                    ops_executed < target
                ):
                    continue  # poll at the loop head, keep going
                return
            # A shared op is in flight: it may only run once this core
            # holds the global minimum (clock, core_id) key.  Otherwise
            # park — flush and yield; the driver resumes this runner at
            # its turn, and the loop head re-checks the poll boundary
            # exactly as an in-place continuation does.
            if heap:
                head = heap[0]
                if clock > head[0] or (clock == head[0] and core_id > head[1]):
                    core.clock = clock
                    core.instructions = instructions
                    core.ops_executed = ops_executed
                    if pending and ckpt is not None:
                        # Another core's poll may serialize this stream.
                        stream.advance(pending)
                        pending = 0
                    yield clock
    finally:
        # Every exit — target reached, park unwind (GeneratorExit), or
        # an exception mid-op — leaves the object graph at the last
        # consistent frontier.  An op fetched but not executed was
        # never advanced, so restores re-fetch it.
        core.clock = clock
        core.instructions = instructions
        core.ops_executed = ops_executed
        if pending:
            stream.advance(pending)


# repro-hot
def run_to_targets(system, targets: Sequence[int]) -> None:
    """Advance *system*'s cores in time order to their absolute *targets*.

    The driver owns the park heap: one entry per live core, keyed by
    ``(clock, core_id)``, carrying that core's suspended
    :func:`_core_runner` coroutine.  Popping the minimum and resuming
    it replays shared ops in exactly the reference scheduler's order;
    a runner that yields again goes back in keyed by its new clock, and
    a runner that returns (target reached or stream exhausted) drops
    out.
    """
    ckpt = system.checkpointer
    steps_cell = [system.steps_total]
    stop_cell = [_next_stop(ckpt, steps_cell[0]) if ckpt is not None else -1]
    counters = system.stats._counters
    heap: List[Tuple] = []
    runners = []
    for core in system.cores:
        if core.done or core.ops_executed >= targets[core.core_id]:
            continue
        runner = _core_runner(
            system, core, targets[core.core_id], heap, counters, ckpt,
            steps_cell, stop_cell,
        )
        runners.append(runner)
        heap.append((core.clock, core.core_id, runner))
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    try:
        while heap:
            entry = heappop(heap)
            parked = next(entry[2], None)
            if parked is not None:
                heappush(heap, (parked, entry[1], entry[2]))
    finally:
        # Deterministic unwind on any exit: close every runner (each
        # one's ``finally`` re-flushes its core; suspended runners were
        # already flushed before yielding, so this is idempotent).
        for runner in runners:
            runner.close()
        system.steps_total = steps_cell[0]
    if ckpt is not None and steps_cell[0] == stop_cell[0]:
        # The run ended exactly on a planned boundary (e.g. a cut point
        # equal to the final step count): the reference loop polls after
        # its last step, so fire the trailing poll on the flushed state.
        ckpt.on_step(system)
