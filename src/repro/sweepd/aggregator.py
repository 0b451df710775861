"""Chaos-proof result aggregation for the sweep service.

The aggregator is the exactly-once boundary: however many times a result
payload arrives (duplicated frames, a worker retrying a ``result`` RPC
whose ack was dropped, a relaunched worker salvaging ``result.json`` for
a job another worker already finished), exactly one cache entry is
written — and it is byte-identical to what the serial runner would have
written, because the payload is reduced to the same metric fields and
stored under the same cache key via the same atomic-write discipline.

Every acceptance decision lands in an append-only JSONL log
(``aggregator.jsonl``) for post-mortem auditing: the chaos test matrix
asserts zero ``lost`` and zero double-``stored`` lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import persist
from repro.sim.metrics import PERSISTED_FIELDS

#: Verdicts returned by :meth:`ResultAggregator.store`.
STORED = "stored"
DUPLICATE = "duplicate"
DIVERGENT = "divergent"

AGGREGATOR_LOG = "aggregator.jsonl"


def result_digest(payload: Dict[str, object]) -> str:
    """Canonical digest of a result's *metric* content.

    Only the cached metric fields participate — bookkeeping such as
    ``attempt`` and ``resumed_at_ops`` legitimately differs between a
    first-try result and one resumed from a checkpoint, while the
    metrics themselves must not.
    """
    material = json.dumps(
        {name: payload.get(name) for name in PERSISTED_FIELDS}, sort_keys=True
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultAggregator:
    """Digest-checked, idempotent result sink over the runner's cache."""

    def __init__(self, root: Union[str, Path], cache_dir: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cache_dir = Path(cache_dir)
        self.log_path = self.root / AGGREGATOR_LOG
        #: job_id -> digest accepted this process lifetime (fast dedupe;
        #: the cache file itself is the cross-restart source of truth).
        self._accepted: Dict[str, str] = {}

    # -- cache interop -----------------------------------------------------
    def _cache_path(self, cache_key: str) -> Path:
        return self.cache_dir / f"{cache_key}.json"

    def cached_digest(self, cache_key: str) -> Optional[str]:
        """Digest of an existing cache entry, or None on miss/torn file.

        Lets a restarted server (and cache-aware submission) recognise
        work that already has a result without trusting in-memory state.
        """
        payload = persist.read_json_or_none(
            self._cache_path(cache_key), site="cache"
        )
        if payload is None:
            return None
        if any(name not in payload for name in PERSISTED_FIELDS):
            return None
        return result_digest(payload)

    # -- ingestion ---------------------------------------------------------
    def store(
        self, job_id: str, cache_key: str, payload: Dict[str, object],
        worker: Optional[str] = None,
    ) -> Tuple[str, str]:
        """Accept (or discard) one result payload; returns (verdict, digest).

        * ``stored`` — first result for the job: written to the cache.
        * ``duplicate`` — the job already has this exact result (same
          digest): discarded, harmless.
        * ``divergent`` — the job already has a *different* result.  The
          simulator is deterministic, so this is a real bug (or silent
          corruption) and the caller must quarantine the job rather than
          pick a winner.
        """
        digest = result_digest(payload)
        known = self._accepted.get(job_id)
        if known is None:
            known = self.cached_digest(cache_key)
        if known is not None:
            verdict = DUPLICATE if known == digest else DIVERGENT
            self._log(job_id, verdict, digest, worker, known=known)
            return (verdict, digest)

        entry = {name: payload[name] for name in PERSISTED_FIELDS}
        # May raise PersistWriteError (ENOSPC, EIO, injected storage
        # fault, or an entry that does not read back intact after its
        # retries).  Deliberately BEFORE the accept/ack bookkeeping: a
        # result that did not land durably must not be acknowledged, so
        # the job stays retryable and no acknowledged result is ever lost.
        persist.write_json_verified(
            self._cache_path(cache_key), entry, site="cache"
        )
        self._accepted[job_id] = digest
        self._log(job_id, STORED, digest, worker)
        return (STORED, digest)

    # -- audit log ---------------------------------------------------------
    def _log(
        self, job_id: str, verdict: str, digest: str,
        worker: Optional[str], known: Optional[str] = None,
    ) -> None:
        record = {
            "ts": time.time(),
            "pid": os.getpid(),
            "job_id": job_id,
            "verdict": verdict,
            "digest": digest,
            "worker": worker,
        }
        if known is not None:
            record["known_digest"] = known
        # Append-only; single-writer (the server's event loop), so a
        # plain append is torn-write-safe enough for an audit artifact —
        # ``repro fsck --repair`` truncates a torn tail line.  Best
        # effort: a full disk must not take the service down with it.
        try:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            with self.log_path.open("a") as handle:  # repro-lint: disable=RL105
                handle.write(json.dumps(record) + "\n")
        except OSError:
            pass
