"""The reference scheduler: the differential oracle for ``repro.sim.engine``.

One op at a time, in global ``(clock, core_id)`` order: pop the core
with the smallest local clock (equal clocks break by core id), fetch its
next op with ``peek_chunk``, run it through :meth:`repro.sim.cpu.Core.execute`,
``advance`` the stream by one, re-queue the core, and poll the
checkpointer.  Every op takes the full scalar path, so this loop is the
definition of correct that the engine's inline fast paths must match
bit for bit.

The heap is a pure function of (cores, targets): every live core below
its target is in it, keyed by unique ``(clock, core_id)``.  That is what
makes mid-loop checkpoints bit-identical on resume, and it is why the
checkpointer is polled at the one safe point per step, after the core
ran and was re-queued.

Nothing under ``src/`` imports this module.  Tests install it on a built
system with :func:`use_reference_scheduler`.
"""

import heapq
import types


def run_to_targets(system, targets):
    """Advance *system*'s cores one op at a time to their absolute *targets*."""
    heap = [
        (core.clock, core.core_id, core)
        for core in system.cores
        if not core.done and core.ops_executed < targets[core.core_id]
    ]
    heapq.heapify(heap)
    ckpt = system.checkpointer
    steps = system.steps_total
    while heap:
        _, core_id, core = heapq.heappop(heap)
        stream = core.ops
        peeked = stream.peek_chunk()
        if peeked is None:
            core.done = True
        else:
            chunk, pos = peeked
            core.execute(chunk.op_at(pos))
            stream.advance(1)
        steps += 1
        if not core.done and core.ops_executed < targets[core_id]:
            heapq.heappush(heap, (core.clock, core_id, core))
        if ckpt is not None:
            system.steps_total = steps
            ckpt.on_step(system)
    system.steps_total = steps


def use_reference_scheduler(system):
    """Make *system* run on the reference scheduler; returns *system*.

    Binds :func:`run_to_targets` as the instance's ``_run_to_targets``
    method, so ``run``, ``run_ops`` and ``resume_run`` all drive it.
    """
    system._run_to_targets = types.MethodType(run_to_targets, system)
    return system
