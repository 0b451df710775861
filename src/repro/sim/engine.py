"""The simulation loop: :meth:`repro.sim.system.System.run` runs here.

The reference semantics are a one-op-at-a-time heap scheduler: pop the
core with the smallest ``(clock, core_id)``, run its next op through
:meth:`repro.sim.cpu.Core.execute`, re-queue it.  That pays the full
Python dispatch chain — op fetch, ``ensure_mapped``, MMU translate,
hierarchy access, per-op result objects — for *every* operation, even
though most of them are pure L1-TLB + L1-cache hits that mutate nothing
outside one core.  This engine produces the identical result while
consuming the stream chunk-wise: one prep pass lifts each
:class:`repro.workloads.chunks.OpChunk` into flat per-op columns (VPN,
line number, L1 set and tag, clock advance), then a slim per-op loop
drains the *pure prefix* of the chunk against the L1 TLB and the L1
cache.  Every other op runs at its exact global order, inline: a
*translation* turn (an L1-TLB miss or a first-touch page) maps the
page, probes the L2 TLB, calls the page walker on a miss and fills
both TLBs; then every turn serves its data line through one inline
data-turn block that replays the scalar hierarchy's mutations.  Every
TLB and cache level is one model, an ``OrderedDict`` per set in
LRU-first order (:class:`repro.vm.tlb.Tlb`,
:class:`repro.cache.cache.SetAssociativeCache`), and the engine works
on those sets with the models' own four operations: ``in``,
``move_to_end``, ``popitem(last=False)`` and one insert.  The walker,
the MMU hint it fires and the controller's request path stay calls
into their own layers; no op leaves the engine for ``Core.execute``.

Equivalence contract (enforced by the pinned goldens and by
tests/integration/test_engine_equivalence.py, which runs the heap
scheduler from tests/reference_scheduler.py as the oracle):

1. **Op classification.**  An op is *pure* when it hits the L1 TLB and
   then the L1 cache.  A pure op touches only the owning core's state —
   its L1-TLB and L1 LRU order, an L1 dirty bit, its clock, and op
   counts — plus global stats counters.  Every other op is *shared*
   and runs at its global turn, even where (an L2 hit with a clean L1
   victim) it would touch only core-local state.  The prep pass
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
3. **Hit and miss semantics.**  The drain loop and the turns replicate
   the scalar path's mutations exactly, in kind and in floating-point
   order: LRU touches, fills and evictions are the models' own
   ``OrderedDict`` operations on the same sets, and clock advances are
   the same float adds in the same sequence (work advance, then the
   walk latency as one int sum, then the stall division).  The shared
   L3's and the L2 TLB's operations run at the op's global turn.  The
   data turn mirrors :meth:`repro.cache.hierarchy.CacheHierarchy.access`
   followed by the tail of :meth:`repro.sim.cpu.Core.execute`: the L1
   probe, then an L2 touch or the L3 probe and the clean L2 fill, the
   L1 fill (dirty on writes), the demand request or the hit stall, and
   the L3, L2 and L1 victims' write-backs in that order.  A core's
   private TLB/L1/L2 contents change only through its own ops (its own
   walks and fills), so an L1 miss found at drain time is still one at
   the ordered turn.  A translation turn probes its data line only
   after the walk, whose page-table lines fill this core's L2.  The TLB
   fills skip the hit check of :meth:`repro.vm.tlb.Tlb.fill`: the
   probes just missed.  An L1-TLB *run* (consecutive ops of one core on
   one page) touches its entry once, with one ``move_to_end`` at its
   first op; the run's later ops, pure or not, leave the TLB alone.
   That is exact because LRU order depends only on the order of last
   touches: only this core's translation turns fill its L1 TLB, and each
   one re-seeds the run to the entry it filled, so the run's entry is
   always its set's most recent and a repeated touch could not change
   the order.  The touch happens when the drain loop reaches the run's
   first op, even if that op then parks for a data turn: nothing else
   reads or writes this core's L1 TLB before the op executes, so the
   end state is the reference's (a checkpoint of the parked core
   resumes by probing, and touching, the same entry again).
   ``ensure_mapped`` is skipped on TLB hits: a VPN can only enter a TLB
   via a walk, walks only happen for mapped VPNs, and mappings are
   never removed.
4. **Checkpoints.**  Core-local state (clock, instructions, op counts)
   is flushed from locals to the object graph before every checkpointer
   poll, and stream consumption moves through the one public
   :meth:`repro.snapshot.stream.ReplayStream.advance` path.  Each
   runner keeps its chunk cursor in locals and peeks the stream only
   when the chunk is used up; executed ops (drained pure prefixes and
   shared ops alike) accumulate in a local count that is flushed
   through ``advance`` before the next peek, before every checkpointer
   poll, and on exit.  A runner that parks leaves its count in its
   core's cell of a shared per-core list and takes back on resume
   whatever is still there; the polling runner flushes every cell
   before it polls, since the poll may serialize any core's stream.  So
   a stream is advanced about once per chunk plus once per poll, never
   once per park.  A fetched-but-unexecuted shared op is *never*
   advanced.  So every poll sees every core's stream at its
   between-ops frontier, and a checkpoint written mid-chunk resumes to
   the identical final digest (the per-phase op *sets* are fixed by the
   absolute targets, and shared order is preserved, so the end state
   cannot depend on where the cut landed).  Deterministic triggers (cut
   points, periodic writes) fire at exactly their configured step
   counts via
   :meth:`repro.snapshot.hooks.Checkpointer.next_trigger_step`; signal
   polls (wall-clock, inherently nondeterministic) happen every
   :data:`_POLL_STEPS` steps, aligned to the heartbeat mask so liveness
   heartbeats keep their cadence.

See docs/PERFORMANCE.md ("Array-native streams", "Cache and TLB
models", "Walks at engine speed", "Misses at table speed", "One data
turn") for the measurements and docs/TESTING.md for the
differential-harness workflow.
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
def _prep_chunk(chunk, vpn_cache, base_cpi, l1_nsets) -> Tuple:
    """Lift one chunk into flat per-op columns (the one per-chunk pass).

    Everything the drain loop indexes per op is computed here, once per
    chunk, as plain Python lists of exact ``int``/``float`` elements.
    The last column is the sorted list of op indices whose pages were
    unmapped at prep time.  It is far from empty on first-touch streams:
    at paper sizing it holds 36% of the ops of the pageseer/lbmx4 job,
    4% of the milcx4 report's and 1% of pageseer/mcfx8's.  Those ops'
    line and L1 set/tag entries are ``-1``-derived junk until the drain
    loop re-resolves them when it *reaches* them (an earlier translation
    turn may have mapped the page by then) — precomputing the unmapped
    indices keeps the mapped-ness check off the per-op fast path.  A
    genuine first touch becomes a translation turn, which maps the page
    and walks it.  Only the L1 split is a column: the drain loop probes
    nothing else, and a turn derives the L2 and L3 splits from the line.

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
        cumw,
        [work * base_cpi for work in works],
        unmapped,
    )


def _core_context(core) -> Tuple:
    """Hoist one core's fast-path invariants into a flat tuple.

    Everything here is fixed for the core's lifetime (the same
    invariants ``Core.__init__`` hoists for the scalar path): for each
    TLB and cache level the drain loop and the turns touch (the L1 and
    L2 TLBs, the L1 and L2 caches and the shared L3), its per-set
    ``OrderedDict`` list, set count and ways; the page table and walker
    a translation turn calls; and the stream.
    ``hmc.handle_request`` is deliberately *not* here: the sanitizer and
    the analysis probes rebind it on the instance, so the engine re-reads
    it around controller calls.
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
        l1_tlb._sets,
        l1_tlb.num_sets,
        l1_tlb.ways,
        l2_tlb._sets,
        l2_tlb.num_sets,
        l2_tlb.ways,
        # Translate's walk latency base: the L1 and L2 TLB probes.
        mmu._l1_latency + mmu._l2_latency,
        l1._sets,
        l1.num_sets,
        l1.ways,
        l2._sets,
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
def _core_runner(
    system, core, target, heap, counters, ckpt, steps_cell, stop_cell, parked_ops
):
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
    re-plans the stop for all.  A parked runner leaves its executed but
    not yet advanced ops in its ``parked_ops`` cell (one per core), so the
    polling runner can move every stream to its frontier.
    """
    (
        stream,
        page_table,
        vpn_cache,
        ensure_mapped,
        walk,
        t_sets,
        tlb_nsets,
        tlb_ways,
        l2t_sets,
        l2t_nsets,
        l2t_ways,
        tlb_lat12,
        l1_sets,
        l1_nsets,
        l1_ways,
        l2_sets,
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
    #: In-flight shared-op kind: 0 = none, 3 = data turn (an L1-TLB hit
    #: that misses the L1 cache), 4 = translation turn (L1-TLB miss or
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
    #: the last fill), whose entry is its set's most recent.  Only a
    #: translation turn fills this core's L1 TLB, and it re-seeds the
    #: run to the entry it filled, so the run outlives segments and
    #: shared turns (contract 3).
    run_vpn = -1
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
                for other, count in enumerate(parked_ops):
                    if count:
                        # A parked core's ops: the poll may serialize
                        # its stream.
                        system.cores[other].ops.advance(count)
                        parked_ops[other] = 0
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
                line = lines[idx]
                if kind == 4:
                    # Translation turn, in Mmu.translate's order: the L2
                    # TLB probe, a walk on a miss, then the TLB fills.
                    vpn = vpns[idx]
                    if line < 0:
                        # First touch: map the page now (frames are
                        # allocated in global order).
                        line = (
                            (ensure_mapped(vpn) << PAGE_SHIFT)
                            | (vaddrs[idx] & _PAGE_MASK)
                        ) >> LINE_SHIFT
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
                    entries_t1 = t_sets[vpn % tlb_nsets]
                    if len(entries_t1) >= tlb_ways:
                        entries_t1.popitem(last=False)
                    entries_t1[key] = ppn
                    run_vpn = vpn
                else:
                    # L1 miss after an L1-TLB hit: the op's page is the
                    # run, whose entry the drain loop already made its
                    # set's most recent, so the touch is the counter.
                    counters["tlb/l1_hits"] += 1.0
                # The data turn: CacheHierarchy.access, then the tail of
                # Core.execute.  A translation turn probes the line only
                # now: the walk's page-table lines may have filled (and
                # evicted from) this core's L2.
                is_write = writes[idx]
                set1 = line % l1_nsets
                tag1 = line // l1_nsets
                entries1 = l1_sets[set1]
                if tag1 in entries1:
                    # L1 hit, on a translation turn only (the drain loop
                    # sends an L1-TLB hit here only when it missed the
                    # L1): LRU touch and dirty bit, no stall.
                    entries1.move_to_end(tag1)
                    if is_write:
                        entries1[tag1] = True
                    counters["cache/l1_hits"] += 1.0
                else:
                    wb_l3 = wb_l2 = wb_l1 = -1
                    llc_miss = False
                    set2 = line % l2_nsets
                    tag2 = line // l2_nsets
                    entries2 = l2_sets[set2]
                    if tag2 in entries2:
                        # L2 hit: LRU touch and dirty bit.
                        entries2.move_to_end(tag2)
                        if is_write:
                            entries2[tag2] = True
                        counters["cache/l2_hits"] += 1.0
                        stall = l2_stall
                    else:
                        # The shared L3 probe at exactly this point in
                        # global order, then the L2 fill (clean).
                        set3 = line % l3_nsets
                        tag3 = line // l3_nsets
                        entries3 = l3_sets[set3]
                        if tag3 in entries3:
                            entries3.move_to_end(tag3)
                            if is_write:
                                entries3[tag3] = True
                            counters["cache/l3_hits"] += 1.0
                            stall = l3_stall
                        else:
                            counters["cache/llc_misses"] += 1.0
                            if len(entries3) >= l3_ways:
                                vtag3, vdirty3 = entries3.popitem(last=False)
                                if vdirty3:
                                    wb_l3 = vtag3 * l3_nsets + set3
                            entries3[tag3] = False
                            llc_miss = True
                        if len(entries2) >= l2_ways:
                            vtag, vdirty = entries2.popitem(last=False)
                            if vdirty:
                                wb_l2 = vtag * l2_nsets + set2
                        entries2[tag2] = False
                    # L1 fill (dirty on writes).
                    if len(entries1) >= l1_ways:
                        vtag, vdirty = entries1.popitem(last=False)
                        if vdirty:
                            wb_l1 = vtag * l1_nsets + set1
                    entries1[tag1] = is_write
                    hmc = core.hmc
                    if llc_miss:
                        now = int(clock)
                        finish = hmc.handle_request(
                            now + lat123, line, is_write, pid, DEMAND
                        )
                        memory_latency = finish - now
                        if is_write:
                            clock += memory_latency * _STORE_STALL_FRACTION / mlp
                        else:
                            clock += memory_latency / mlp
                    else:
                        clock += stall
                    # Scalar order: the clock is updated before
                    # write-backs drain (the sanitizer may read it).
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
                    vpns, lines, l1sets, l1tags, cumw, advs, unmapped = (
                        _prep_chunk(chunk, vpn_cache, base_cpi, l1_nsets)
                    )
                    writes = chunk.writes
                    vaddrs = chunk.vaddrs
                    chunk_len = chunk.length
                limit = pos + (target - ops_executed)
                if stop_steps >= 0 and stop_steps - steps < limit - pos:
                    limit = pos + (stop_steps - steps)
                if limit > chunk_len:
                    limit = chunk_len
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
                        # The column is sorted and duplicate-free, so
                        # the next unmapped op is the next entry.
                        nxt_un = limit
                        un_k += 1
                        if un_k < len(unmapped) and unmapped[un_k] < limit:
                            nxt_un = unmapped[un_k]
                    vpn = vpns[i]
                    if vpn != run_vpn:
                        # New page run: one TLB probe and one LRU touch
                        # cover the whole run (contract 3).
                        tkey = (pid, vpn)
                        entries_t1 = t_sets[vpn % tlb_nsets]
                        if tkey not in entries_t1:
                            kind = 4  # L1-TLB miss: translation turn
                            break
                        entries_t1.move_to_end(tkey)
                        run_vpn = vpn
                    entries1 = l1_sets[l1sets[i]]
                    tag1 = l1tags[i]
                    if tag1 not in entries1:
                        kind = 3  # L1 miss: a data turn
                        break
                    # TLB-L1 + cache-L1 double hit: the scalar path's
                    # only mutations are two LRU touches (the TLB's
                    # changes no order inside a run), the dirty bit, two
                    # counters, and the base-CPI clock advance (stall is
                    # 0.0).
                    entries1.move_to_end(tag1)
                    if writes[i]:
                        entries1[tag1] = True
                    clock += advs[i]
                    i += 1
                # Segment end, when any pure op drained: flush deferred
                # counters (+= float(k) == k unit increments for
                # integer-valued floats; every pure op is one L1-TLB hit
                # and one L1 hit), and move the cursor past the drained
                # pure prefix.
                drained = i - pos
                if drained:
                    counters["tlb/l1_hits"] += float(drained)
                    counters["cache/l1_hits"] += float(drained)
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
                    parked_ops[core_id] = pending
                    pending = 0
                    yield clock
                    # Take back whatever no poll flushed meanwhile.
                    pending = parked_ops[core_id]
                    parked_ops[core_id] = 0
    finally:
        # Every exit — target reached, park unwind (GeneratorExit), or
        # an exception mid-op — leaves the object graph at the last
        # consistent frontier.  An op fetched but not executed was
        # never advanced, so restores re-fetch it.
        core.clock = clock
        core.instructions = instructions
        core.ops_executed = ops_executed
        pending += parked_ops[core_id]
        parked_ops[core_id] = 0
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
    #: Per core: ops a parked runner executed but has not advanced.
    parked_ops = [0] * len(system.cores)
    heap: List[Tuple] = []
    runners = []
    for core in system.cores:
        if core.done or core.ops_executed >= targets[core.core_id]:
            continue
        runner = _core_runner(
            system, core, targets[core.core_id], heap, counters, ckpt,
            steps_cell, stop_cell, parked_ops,
        )
        runners.append(runner)
        heap.append((core.clock, core.core_id, runner))
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    try:
        while heap:
            entry = heappop(heap)
            clock = next(entry[2], None)
            if clock is not None:
                heappush(heap, (clock, entry[1], entry[2]))
    finally:
        # Deterministic unwind on any exit: close every runner.  Each
        # one's ``finally`` flushes its core's locals and advances its
        # stream by its own count plus whatever its ``parked_ops`` cell
        # still holds, so closing a parked runner flushes its cell; a
        # runner that already returned has nothing left, so this is
        # idempotent.
        for runner in runners:
            runner.close()
        system.steps_total = steps_cell[0]
    if ckpt is not None and steps_cell[0] == stop_cell[0]:
        # The run ended exactly on a planned boundary (e.g. a cut point
        # equal to the final step count): the reference loop polls after
        # its last step, so fire the trailing poll on the flushed state.
        ckpt.on_step(system)
