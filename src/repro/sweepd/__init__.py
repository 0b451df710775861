"""Fault-tolerant sweep service: the repo's one multi-process executor.

``sweepd`` is a sharded simulation service: a work-queue server owning a
versioned, atomically persisted job manifest, and N worker processes
that lease jobs over a length-prefixed JSON protocol, stream heartbeats,
checkpoint through :mod:`repro.snapshot` (versioned ``REPRO-CKPT`` files),
and report results into the same atomic result cache the serial runner
reads.
``repro sweep`` and ``ExperimentRunner.run_many(jobs != 1)`` run it as a
local fleet.

Module map (docs/SWEEP_SERVICE.md has the full architecture):

* :mod:`repro.sweepd.protocol` — framing, addressing, the retrying
  :class:`~repro.sweepd.protocol.RpcClient`, deterministic message chaos;
* :mod:`repro.sweepd.jobs` — job records and deterministic job ids;
* :mod:`repro.sweepd.manifest` — the server's persisted queue: leases,
  expiry reclaim, retry backoff, poison-job quarantine;
* :mod:`repro.sweepd.aggregator` — exactly-once, digest-checked result
  aggregation into the runner's cache;
* :mod:`repro.sweepd.server` — the selectors event loop;
* :mod:`repro.sweepd.worker` — the lease/execute/report worker loop;
* :mod:`repro.sweepd.fleet` — the local fleet driver behind
  ``repro sweep`` and ``run_many`` (process supervision + scripted
  chaos).
"""
