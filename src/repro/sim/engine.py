"""The simulation loop: :meth:`repro.sim.system.System.run` runs here.

The reference semantics are a one-op-at-a-time heap scheduler: pop the
core with the smallest ``(clock, core_id)``, run its next op through
:meth:`repro.sim.cpu.Core.execute`, re-queue it.  That pays the full
Python dispatch chain — op fetch, ``ensure_mapped``, MMU translate,
hierarchy access, per-op result objects — for *every* operation, even
though most of them are pure L1-TLB + L1/L2-cache hits that mutate
nothing outside one core.  This engine produces the identical result
while consuming the stream chunk-wise: a vectorized prep kernel lifts each
:class:`repro.workloads.chunks.OpChunk` into flat per-op columns (VPN,
line number, set indices, tags, clock advance) in a handful of numpy
ops, then a slim per-op loop drains the *pure prefix* of the chunk
against the struct-of-arrays TLB/cache models
(:class:`repro.vm.tlb.SoaTlb`, :class:`repro.cache.cache.SoaCache`).
Shared ops run at their exact global order: cache-miss shapes (dirty
L2-hit victims, L1+L2 misses reaching the L3 or memory) replay the
scalar path's mutations inline from the prepped columns, and only
*translation* events (TLB-miss walks, first-touch pages) escape to the
unmodified scalar path (:meth:`repro.sim.cpu.Core.execute`).

Equivalence contract (enforced by the pinned goldens and by
tests/integration/test_engine_equivalence.py, which runs the heap
scheduler from tests/reference_scheduler.py as the oracle):

1. **Op classification.**  An op is *pure* when it hits the L1 TLB and
   then either hits the L1 cache, or hits the L2 cache with a clean (or
   absent) L1 victim.  A pure op touches only the owning core's state —
   its TLB/L1/L2 LRU ages, dirty bits, clock, and op counts — plus
   global stats counters.  Every other op is *shared*: it reaches the
   walker, the shared L3, or the memory controller.  The prep kernel
   resolves VPN→PPN through the page table's dense cache *at prep
   time*; an op whose page is unmapped at that point is classified
   shared conservatively (pure ops commute, and the scalar path it
   escapes to is the source of truth — first-touch is a walk anyway).
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
   the same sequence (work advance, then the stall division), and the
   L3's ``OrderedDict`` operations (``move_to_end``, LRU-first
   ``popitem``) are performed verbatim at the op's global turn.
   Classification probes (way-dict ``get``, age ``argmin``, victim
   dirty-bit peek) are non-mutating, and a core's private TLB/L1/L2
   membership cannot change while it is parked (only its own walks and
   fills mutate them), so drain-time classifications stay valid at the
   ordered turn.  ``ensure_mapped`` is skipped on TLB hits: a VPN can
   only enter a TLB via a walk, walks only happen for mapped VPNs, and
   mappings are never removed.
4. **Checkpoints.**  Core-local state (clock, instructions, op counts)
   is flushed from locals to the object graph before every checkpointer
   poll, and stream consumption moves through the one public
   :meth:`repro.snapshot.stream.ReplayStream.advance` path — the pure
   prefix advances when it drains, an executed shared op advances right
   after it runs, and a fetched-but-unexecuted shared op is *never*
   advanced — so a checkpoint written mid-chunk is a consistent
   between-ops frontier that resumes to the identical final digest (the
   per-phase op *sets* are fixed by the absolute targets, and shared
   order is preserved, so the end state cannot depend on where the cut
   landed).  Deterministic triggers (cut points, periodic writes) fire
   at exactly their configured step counts via
   :meth:`repro.snapshot.hooks.Checkpointer.next_trigger_step`; signal
   polls (wall-clock, inherently nondeterministic) happen every
   :data:`_POLL_STEPS` steps, aligned to the heartbeat mask so liveness
   heartbeats keep their cadence.

See docs/PERFORMANCE.md ("Array-native streams") for the measured
speedups and docs/TESTING.md for the differential-harness workflow.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from repro.common.addr import LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT
from repro.sim.cpu import _STORE_STALL_FRACTION
from repro.sim.hmc_base import RequestKind

try:  # numpy backs the chunk prep kernel; a scalar fallback covers its absence
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain image bakes numpy in
    _np = None

_DEMAND = RequestKind.DEMAND
_WRITEBACK = RequestKind.WRITEBACK

_PAGE_MASK = PAGE_BYTES - 1

#: Steps between checkpointer polls when no cut point or periodic write
#: is due sooner.  Poll steps are multiples of this value so the
#: checkpointer's ``steps & 0xFF == 0`` heartbeat condition still fires.
_POLL_STEPS = 256


def _prep_chunk(chunk, vpn_cache, base_cpi, l1_nsets, l2_nsets, l3_nsets) -> Tuple:
    """Lift one chunk into flat per-op columns (the vectorized kernel).

    Everything the drain loop indexes per op is computed here in a few
    whole-chunk vector ops and materialized back to Python lists (list
    indexing beats numpy scalar extraction in the per-op loop, and
    ``tolist`` yields exact ``int``/``float`` elements).  The last
    column is the (almost always empty) sorted list of op indices whose
    pages were unmapped at prep time; their line/set/tag entries are
    ``-1``-derived junk until the drain loop re-resolves them when it
    *reaches* them (an earlier escape may have mapped the page by then)
    — precomputing the escape indices keeps the mapped-ness check off
    the per-op fast path.  A genuine first touch escapes to the scalar
    path, whose walk maps the page.

    The VPN→PPN resolution is against the page table's *immutable*
    mapping (entries are only ever added), so prepping ahead of
    execution cannot observe stale translations — only absent ones,
    which the unmapped index list handles conservatively.
    """
    if _np is not None and hasattr(vpn_cache, "lookup_many"):
        va = chunk.vaddr_array()
        vpns = va >> PAGE_SHIFT
        ppns = vpn_cache.lookup_many(vpns)
        lines = ((ppns << PAGE_SHIFT) | (va & _PAGE_MASK)) >> LINE_SHIFT
        if (ppns < 0).any():
            lines = _np.where(ppns >= 0, lines, -1)
            unmapped = _np.nonzero(ppns < 0)[0].tolist()
        else:
            unmapped = ()
        works = _np.array(chunk.instr, dtype=_np.int64) + 1
        # Exclusive prefix sum of per-op work: the drain loop charges a
        # whole segment with cumw[end] - cumw[start] (integer adds
        # regroup exactly, unlike the per-op float clock advances).
        cumw = _np.zeros(works.shape[0] + 1, dtype=_np.int64)
        _np.cumsum(works, out=cumw[1:])
        return (
            vpns.tolist(),
            lines.tolist(),
            (lines % l1_nsets).tolist(),
            (lines // l1_nsets).tolist(),
            (lines % l2_nsets).tolist(),
            (lines // l2_nsets).tolist(),
            (lines % l3_nsets).tolist(),
            (lines // l3_nsets).tolist(),
            cumw.tolist(),
            (works * base_cpi).tolist(),
            unmapped,
        )
    # Scalar fallback: no numpy, or a plain-dict VPN cache.
    get = vpn_cache.get
    vpns = [vaddr >> PAGE_SHIFT for vaddr in chunk.vaddrs]
    lines = []
    unmapped = []
    for index, (vaddr, vpn) in enumerate(zip(chunk.vaddrs, vpns)):
        ppn = get(vpn)
        if ppn is None:
            lines.append(-1)
            unmapped.append(index)
        else:
            lines.append(((ppn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)) >> LINE_SHIFT)
    works = [instructions + 1 for instructions in chunk.instr]
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
    shared L3's per-set ``OrderedDict`` list for the inline miss path,
    and the stream.  ``hmc.handle_request`` is deliberately *not* here:
    the sanitizer and the analysis probes rebind it on the instance, so
    the engine re-reads it around controller calls.
    """
    l1_tlb = core.mmu.l1_tlb
    hierarchy = core.hierarchy
    l1 = hierarchy.l1[core.core_id]
    l2 = hierarchy.l2[core.core_id]
    l3 = hierarchy.l3
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
        core._page_table._vpn_cache,
        l1_tlb._way_of,
        l1_tlb._ages,
        l1_tlb._age,
        l1_tlb.num_sets,
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


def _core_runner(system, core, target, heap, counters, ckpt, steps_cell, stop_cell):
    """One core's free-run coroutine (see :func:`run_to_targets`).

    All of the core's hot state — the object-graph mirrors (clock,
    instruction and op counts), the prepared chunk columns, and the
    in-flight shared-op descriptor — lives in this generator's locals
    across parks, so a park/resume cycle costs one ``yield`` instead of
    re-hoisting a 30-element context and re-unpacking the chunk columns
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
        vpn_cache,
        t_way_of,
        t_ages,
        t_age_cell,
        tlb_nsets,
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
    #: In-flight shared-op kind: 0 = none, 1 = full scalar escape
    #: (walks, first touches), 2 = dirty-victim L2 hit, 3 = L1+L2 miss
    #: (L3 hit or memory).  Kinds 2 and 3 carry the op's chunk-column
    #: index in ``idx``; kind 1 carries the materialized MemoryOp.
    kind = 0
    op = None
    idx = 0
    cur_chunk = None
    try:
        while True:
            if steps_cell[0] == stop_cell[0]:
                # Checkpoint boundary (or signal poll): flush locals so
                # the serialized graph is a consistent between-ops
                # frontier, poll, re-plan.
                core.clock = clock
                core.instructions = instructions
                core.ops_executed = ops_executed
                system.steps_total = steps_cell[0]
                ckpt.on_step(system)
                stop_cell[0] = _next_stop(ckpt, steps_cell[0])
            if kind == 2:
                # Dirty-victim L2 hit at its global turn: the
                # classification probes are still valid (only other
                # cores ran in between, and they cannot touch this
                # core's TLB/L1/L2), so replicate the scalar path
                # inline from the prepped columns — work advance, TLB
                # L1 hit, L2 hit, L1 fill evicting the dirty victim —
                # and send the one shared effect, the victim
                # write-back, to the controller.
                instructions += cumw[idx + 1] - cumw[idx]
                clock += advs[idx]
                vpn = vpns[idx]
                tidx = vpn % tlb_nsets
                tway = t_way_of[tidx][(pid, vpn)]
                t_ages[tidx][tway] = t_age_cell[0]
                t_age_cell[0] += 1
                counters["tlb/l1_hits"] += 1.0
                is_write = writes[idx]
                set2 = l2sets[idx]
                way2 = l2_way_of[set2][l2tags[idx]]
                l2_ages[set2][way2] = l2_age_cell[0]
                l2_age_cell[0] += 1
                if is_write:
                    l2_dirty[set2][way2] = True
                counters["cache/l2_hits"] += 1.0
                set1 = l1sets[idx]
                ages1 = l1_ages[set1]
                vway = ages1.index(min(ages1))
                tags1 = l1_tags[set1]
                victim_tag = tags1[vway]
                ways1 = l1_way_of[set1]
                del ways1[victim_tag]
                tag1 = l1tags[idx]
                ways1[tag1] = vway
                tags1[vway] = tag1
                l1_dirty[set1][vway] = is_write
                ages1[vway] = l1_age_cell[0]
                l1_age_cell[0] += 1
                clock += l2_stall
                # Flush before the controller call: the sanitizer may
                # wrap handle_request and read system state (scalar
                # order: clock is updated before write-backs drain).
                core.clock = clock
                core.instructions = instructions
                core.ops_executed = ops_executed
                core.hmc.handle_request(
                    int(clock),
                    victim_tag * l1_nsets + set1,
                    True,
                    pid,
                    _WRITEBACK,
                )
                ops_executed += 1
                stream.advance(1)
                kind = 0
                steps_cell[0] += 1
            elif kind == 3:
                # L1+L2 miss at its global turn: the private miss
                # probes are still valid (see kind 2), so replicate the
                # scalar path inline — work advance, TLB L1 hit, the
                # shared L3 probe at exactly this point in global
                # order, the L2/L1 fills, the demand request on an LLC
                # miss, and the victim write-backs.
                instructions += cumw[idx + 1] - cumw[idx]
                # Scalar visibility during the controller call:
                # instructions are committed at op start, the clock not
                # until the stall is known.
                core.instructions = instructions
                core.clock = clock
                core.ops_executed = ops_executed
                clock += advs[idx]
                now = int(clock)
                vpn = vpns[idx]
                tidx = vpn % tlb_nsets
                tway = t_way_of[tidx][(pid, vpn)]
                t_ages[tidx][tway] = t_age_cell[0]
                t_age_cell[0] += 1
                counters["tlb/l1_hits"] += 1.0
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
                        now + lat123, line, is_write, pid, _DEMAND
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
                        handle(wb_now, wb_l3, True, pid, _WRITEBACK)
                    if wb_l2 >= 0:
                        handle(wb_now, wb_l2, True, pid, _WRITEBACK)
                    if wb_l1 >= 0:
                        handle(wb_now, wb_l1, True, pid, _WRITEBACK)
                ops_executed += 1
                stream.advance(1)
                kind = 0
                steps_cell[0] += 1
            elif kind == 1:
                # A translation event (walk or first touch) at its
                # global turn: run the full scalar path on the flushed
                # core.
                core.clock = clock
                core.instructions = instructions
                core.ops_executed = ops_executed
                core.execute(op)
                stream.advance(1)
                op = None
                clock = core.clock
                instructions = core.instructions
                ops_executed = core.ops_executed
                kind = 0
                steps_cell[0] += 1
            # Free-run through pure (core-local) ops, one chunk prefix
            # at a time.
            while ops_executed < target:
                steps = steps_cell[0]
                stop_steps = stop_cell[0]
                if steps == stop_steps:
                    break
                peeked = stream.peek_chunk()
                if peeked is None:
                    core.done = True
                    break
                chunk, pos = peeked
                if chunk is not cur_chunk:
                    cur_chunk = chunk
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
                limit = pos + (target - ops_executed)
                if stop_steps >= 0 and stop_steps - steps < limit - pos:
                    limit = pos + (stop_steps - steps)
                if limit > chunk.length:
                    limit = chunk.length
                # Segment-local mirrors of the age counters and
                # deferred stats (written back at segment end, before
                # any escape can observe them).
                t_age = t_age_cell[0]
                l1_age = l1_age_cell[0]
                l2_age = l2_age_cell[0]
                n_l1 = n_l2 = 0
                run_vpn = -1
                run_ages = None
                run_way = -1
                i = pos
                # The next op index whose page was unmapped at prep
                # time (``limit`` when none remain ahead): hoists the
                # mapped-ness check out of the per-op loop.
                nxt_un = limit
                if unmapped:
                    for u in unmapped:
                        if u >= i:
                            if u < limit:
                                nxt_un = u
                            break
                while i < limit:
                    if i == nxt_un:
                        # Unmapped at prep time — re-resolve: an
                        # earlier escape may have walked the page in
                        # by now (mappings are only added, so a hit
                        # here can never be stale).
                        ppn = vpn_cache.get(vpns[i])
                        if ppn is None:
                            kind = 1  # first touch: walk
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
                        nxt_un = limit
                        for u in unmapped:
                            if u > i:
                                if u < limit:
                                    nxt_un = u
                                break
                    vpn = vpns[i]
                    if vpn != run_vpn:
                        # New page run: one TLB probe covers the whole
                        # run (no invalidations exist, and pure ops
                        # never mutate TLB membership).
                        tidx = vpn % tlb_nsets
                        tway = t_way_of[tidx].get((pid, vpn))
                        if tway is None:
                            kind = 1  # translation event: walk
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
                # Segment end: write back age counters, flush deferred
                # counters (+= float(k) == k unit increments for
                # integer-valued floats; every pure op touches the TLB
                # exactly once, so its count is n_l1 + n_l2), advance
                # the drained pure prefix through the stream's one
                # consumption path.
                t_age_cell[0] = t_age
                l1_age_cell[0] = l1_age
                l2_age_cell[0] = l2_age
                if n_l1 or n_l2:
                    counters["tlb/l1_hits"] += float(n_l1 + n_l2)
                if n_l1:
                    counters["cache/l1_hits"] += float(n_l1)
                if n_l2:
                    counters["cache/l2_hits"] += float(n_l2)
                drained = i - pos
                if drained:
                    ops_executed += drained
                    steps_cell[0] = steps + drained
                    instructions += cumw[i] - cumw[pos]
                    stream.advance(drained)
                if kind:
                    idx = i
                    if kind == 1:
                        op = chunk.op_at(i)
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
                    yield clock
    finally:
        # Every exit — target reached, park unwind (GeneratorExit), or
        # an exception mid-op — leaves the object graph at the last
        # consistent frontier.  An op fetched but not executed was
        # never advanced, so restores re-fetch it.
        core.clock = clock
        core.instructions = instructions
        core.ops_executed = ops_executed


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
