"""The sweep service's work-queue server.

A single-threaded ``selectors`` event loop: accept connections, reassemble
frames, dispatch to idempotent handlers, queue replies.  The server owns
the :class:`repro.sweepd.manifest.JobManifest` (persisted atomically on
every state change) and the :class:`repro.sweepd.aggregator
.ResultAggregator` (the exactly-once result sink); workers and
submitters only ever talk to it through the protocol.

Idempotency is the load-bearing property: every request handler computes
the reply purely from durable state, so a retried request (same ``seq``)
or a duplicated frame re-derives the same answer instead of mutating
twice.  Leases re-grant to their holder, submits dedupe by job id,
results dedupe by digest.  That is what lets :func:`apply_chaos` mangle
both directions of every connection without ever changing what the sweep
computes.

Crash model: the server may be SIGKILLed at any instant.  On restart it
reloads the manifest (leases demote to pending), re-marks any job whose
result already landed in the atomic cache as done, and re-leases
in-flight jobs to whichever workers are still heartbeating them.
"""

from __future__ import annotations

import selectors
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.errors import PersistError, SweepdError
from repro.common.rng import DeterministicRng
from repro.experiments.jobcore import LEASE_SECONDS
from repro.faults.chaos import ChaosConfig
from repro.sweepd.aggregator import DIVERGENT, ResultAggregator
from repro.sweepd.jobs import DONE, PENDING, JobRecord
from repro.sweepd.manifest import JobManifest
from repro.sweepd.protocol import (
    FrameBuffer,
    Message,
    apply_chaos,
    chaos_stall,
    create_listener,
    default_address,
    encode_frame,
    listener_address,
    write_address_file,
)


class _Connection:
    """Per-socket state: reassembly buffer and pending outgoing bytes."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.frames = FrameBuffer()
        self.out = bytearray()
        self.closing = False


class SweepdServer:
    """Work-queue server: manifest, aggregator, and protocol endpoint."""

    def __init__(
        self,
        root: Union[str, Path],
        cache_dir: Union[str, Path],
        *,
        address: Optional[str] = None,
        max_attempts: int = 3,
        lease_seconds: float = LEASE_SECONDS,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest = JobManifest(
            self.root, max_attempts=max_attempts, lease_seconds=lease_seconds
        )
        self.aggregator = ResultAggregator(self.root, cache_dir)
        self.chaos = chaos
        self._recv_rng = DeterministicRng(
            "chaos/recv", chaos.chaos_seed if chaos else 0
        )
        self._send_rng = DeterministicRng(
            "chaos/send", chaos.chaos_seed if chaos else 0
        )
        self._stall_rng = DeterministicRng(
            "chaos/stall", chaos.chaos_seed if chaos else 0
        )
        self._selector = selectors.DefaultSelector()
        self._listener = create_listener(address or default_address(self.root))
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self.address = listener_address(self._listener)
        write_address_file(self.root, self.address)
        self._connections: Dict[socket.socket, _Connection] = {}
        self._stopping = False
        self._dirty = False

        if self.manifest.load():
            self._adopt_cached_results()
            self.manifest.persist()

    # -- lifecycle ---------------------------------------------------------
    def _adopt_cached_results(self) -> None:
        """Reconcile job states with the result cache after a restart.

        After a restart the cache, not the manifest, is the authority on
        which simulations are finished: a job whose result reached the
        cache is done (the crash window between "result stored
        atomically" and "manifest persisted"), and a done job whose
        entry is gone or unreadable (deleted, bit-rotted) is pending
        again — its next lease holder salvages ``result.json`` or
        re-simulates.
        """
        for record in self.manifest.jobs.values():
            digest = self.aggregator.cached_digest(record.cache_key)
            if digest is not None:
                if record.state != DONE:
                    self.manifest.mark_done(record.job_id, digest)
            elif record.state == DONE:
                record.state = PENDING

    def close(self) -> None:
        for conn in list(self._connections.values()):
            self._discard(conn)
        self._selector.unregister(self._listener)
        self._listener.close()
        self._selector.close()
        if self._dirty:
            self.manifest.persist()
            self._dirty = False

    def serve_forever(self, *, poll_seconds: float = 0.05) -> None:
        """Run until a ``shutdown`` request arrives (or stop() is called)."""
        try:
            while not self._stopping:
                self.tick(poll_seconds)
        finally:
            self.close()

    def stop(self) -> None:
        self._stopping = True

    # -- event loop --------------------------------------------------------
    def tick(self, poll_seconds: float = 0.05) -> None:
        """One loop iteration: I/O, expiry sweep, persistence."""
        for key, events in self._selector.select(timeout=poll_seconds):
            if key.fileobj is self._listener:
                self._accept()
                continue
            conn = self._connections.get(key.fileobj)  # type: ignore[arg-type]
            if conn is None:
                continue
            if events & selectors.EVENT_READ:
                self._read(conn)
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
        now = time.monotonic()
        if self.manifest.reclaim_expired(now):
            self._dirty = True
        if self._dirty:
            self.manifest.persist()
            self._dirty = False

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._connections[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, None)

    def _discard(self, conn: _Connection) -> None:
        self._connections.pop(conn.sock, None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._discard(conn)
            return
        if not data:
            self._discard(conn)
            return
        try:
            messages = conn.frames.feed(data)
        except SweepdError:
            # A corrupt stream is this connection's problem, not the
            # service's: drop the peer, its RpcClient will reconnect.
            self._discard(conn)
            return
        stall = chaos_stall(self._stall_rng, self.chaos)
        if stall > 0.0:
            time.sleep(stall)
        messages = apply_chaos(messages, self._recv_rng, self.chaos)
        replies: List[Message] = []
        for message in messages:
            reply = self._dispatch(message)
            if reply is not None and "seq" in message:
                reply["seq"] = message["seq"]
                replies.append(reply)
        replies = apply_chaos(replies, self._send_rng, self.chaos)
        for reply in replies:
            conn.out.extend(encode_frame(reply))
        self._flush(conn)
        if conn.closing and not conn.out:
            self._discard(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.out:
            try:
                sent = conn.sock.send(bytes(conn.out))
            except BlockingIOError:
                break
            except OSError:
                self._discard(conn)
                return
            del conn.out[:sent]
        want = selectors.EVENT_READ
        if conn.out:
            want |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, want, None)
        except (KeyError, ValueError):
            pass

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, message: Message) -> Optional[Message]:
        kind = message.get("type")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return {"type": "error", "error": f"unknown message type {kind!r}"}
        try:
            return handler(message)
        except SweepdError as exc:
            return {"type": "error", "error": str(exc)}

    def _on_lease(self, message: Message) -> Message:
        worker = str(message.get("worker"))
        kind, record, retry_after = self.manifest.lease(worker, time.monotonic())
        self._dirty = True
        if kind != "job" or record is None:
            return {"type": "lease", "kind": kind, "retry_after": retry_after}
        return {
            "type": "lease",
            "kind": "job",
            "job_id": record.job_id,
            "request": list(record.request),
            "sizing": record.sizing,
            "faults": record.faults,
            "attempt": record.attempts - 1,
        }

    def _on_heartbeat(self, message: Message) -> None:
        self.manifest.heartbeat(
            str(message.get("worker")),
            str(message.get("job_id")),
            time.monotonic(),
        )
        return None  # fire-and-forget: no reply even if seq were present

    def _on_result(self, message: Message) -> Message:
        job_id = str(message.get("job_id"))
        worker = message.get("worker")
        record = self.manifest.jobs.get(job_id)
        if record is None:
            return {"type": "error", "error": f"unknown job {job_id!r}"}
        payload = message.get("payload")
        if not isinstance(payload, dict):
            return {"type": "error", "error": "result without a payload object"}
        try:
            verdict, digest = self.aggregator.store(
                job_id, record.cache_key, payload,
                worker=worker if isinstance(worker, str) else None,
            )
        except PersistError as exc:
            # The cache write was refused (ENOSPC, EIO, injected storage
            # fault): the result is NOT durable, so it must not be acked
            # as stored.  Requeue the job as a retryable failure — the
            # next lease holder salvages its on-disk result.json (or
            # re-simulates) and re-reports, and the retried cache write
            # gets a fresh chance.
            self.manifest.fail(
                job_id, worker if isinstance(worker, str) else None,
                f"storage refused the result ({exc})",
                retryable=True, now=time.monotonic(),
            )
            self._dirty = True
            return {"type": "result", "verdict": "deferred", "job_id": job_id}
        if verdict == DIVERGENT:
            self.manifest.fail(
                job_id, None,
                f"divergent result (digest {digest[:12]} vs "
                f"{record.result_digest and record.result_digest[:12]})",
                retryable=False, now=time.monotonic(),
            )
        else:
            self.manifest.mark_done(job_id, digest)
        self._dirty = True
        return {"type": "result", "verdict": verdict, "job_id": job_id}

    def _on_fail(self, message: Message) -> Message:
        job_id = str(message.get("job_id"))
        state = self.manifest.fail(
            job_id,
            str(message.get("worker")),
            str(message.get("error", "worker reported failure")),
            bool(message.get("retryable", True)),
            time.monotonic(),
        )
        self._dirty = True
        return {"type": "fail", "job_id": job_id, "state": state}

    def _on_submit(self, message: Message) -> Message:
        entries = message.get("jobs")
        if not isinstance(entries, list):
            return {"type": "error", "error": "submit without a job list"}
        try:
            records = [JobRecord.from_json(entry) for entry in entries]
        except (TypeError, KeyError) as exc:
            return {"type": "error", "error": f"malformed job entry: {exc}"}
        new_ids, known_ids = self.manifest.submit(records)
        # Cache-aware admission: anything already simulated (by a serial
        # run, a supervised sweep, or a previous service) is done on
        # arrival — workers never re-run it.
        done_ids = []
        for job_id in new_ids:
            record = self.manifest.jobs[job_id]
            digest = self.aggregator.cached_digest(record.cache_key)
            if digest is not None:
                self.manifest.mark_done(job_id, digest)
                done_ids.append(job_id)
        self._dirty = True
        return {
            "type": "submit",
            "new": new_ids,
            "known": known_ids,
            "already_done": done_ids,
        }

    def _on_status(self, message: Message) -> Message:
        jobs = [record for _, record in sorted(self.manifest.jobs.items())]
        return {
            "type": "status",
            "counts": self.manifest.counts(),
            "drained": self.manifest.drained(),
            # Summed over the persisted records, so reclaims from before a
            # server restart still count.
            "reclaims": sum(record.reclaims for record in jobs),
            "reclaimed_workers": sorted(self.manifest.reclaimed_workers),
            "jobs": [record.describe() for record in jobs],
        }

    def _on_shutdown(self, message: Message) -> Message:
        self._stopping = True
        return {"type": "shutdown", "stopping": True}
