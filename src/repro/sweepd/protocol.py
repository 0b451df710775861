"""Length-prefixed JSON frames over TCP or Unix sockets, chaos-tolerant.

Wire format: each message is one frame — a 4-byte big-endian payload
length followed by a UTF-8 JSON object.  Framing survives arbitrary TCP
segmentation (:class:`FrameBuffer` reassembles), and every message is a
plain dict with a ``type`` field, so the protocol is inspectable with
``socat`` and versioned by vocabulary rather than by layout.

Reliability model (the part chaos testing leans on):

* Requests that expect a reply carry a client-assigned ``seq``; the
  server echoes it.  :class:`RpcClient.call` retries the *same* frame
  (same seq) after a timeout or connection error, reconnecting as
  needed, until ``retry_window`` is exhausted — so every server-side
  handler must be idempotent, and is.
* Replies whose ``seq`` does not match the in-flight call are discarded:
  that is what makes duplicated or reordered frames harmless on the
  client side.
* Messages without ``seq`` (heartbeats) are fire-and-forget: no reply,
  no retry, failure is absorbed — a flaky network must never stall the
  simulation loop that emits them.

Chaos injection (:func:`apply_chaos`) is a pure function over a batch of
frames, drawing drop/duplicate/reorder decisions from a
:class:`repro.common.rng.DeterministicRng`, so the unit tests can pin
exact schedules; the server applies it to both received and sent
batches.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.common.errors import SweepdError
from repro.common.rng import DeterministicRng
from repro.faults.chaos import ChaosConfig

T = TypeVar("T")

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame; anything larger is a protocol violation
#: (status replies for paper-scale sweeps are ~100 KiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: File (under the server root) recording the address actually bound,
#: so workers and clients can find a server given only the root.
ADDRESS_FILE = "sweepd.addr"

#: Default socket file name for Unix-domain listeners.
SOCKET_NAME = "sweepd.sock"

#: Unix socket paths are limited to ~108 bytes (sun_path); beyond this
#: the service falls back to TCP on localhost.
_MAX_UNIX_PATH = 96

#: First pause before an RPC retry; it doubles up to one second.
_RECONNECT_DELAY = 0.05

Message = Dict[str, object]


def encode_frame(message: Message) -> bytes:
    """Serialize one message to its wire frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise SweepdError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


class FrameBuffer:
    """Incremental frame reassembly for one stream socket."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Message]:
        """Absorb *data*; return every now-complete message, in order."""
        self._buffer.extend(data)
        out: List[Message] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return out
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise SweepdError(
                    f"incoming frame claims {length} bytes "
                    f"(limit {MAX_FRAME_BYTES}); stream corrupt"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return out
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SweepdError(f"undecodable frame: {exc}")
            if not isinstance(message, dict):
                raise SweepdError(
                    f"frame decodes to {type(message).__name__}, expected object"
                )
            out.append(message)


# -- chaos ---------------------------------------------------------------------


def apply_chaos(
    frames: Sequence[T],
    rng: DeterministicRng,
    chaos: Optional[ChaosConfig],
) -> List[T]:
    """Drop, duplicate, and pairwise-reorder a batch of frames.

    Pure in (frames, rng state, chaos): the same stream of batches under
    the same seed yields the same mangling schedule.  Stalls are NOT
    applied here (they are a side effect, not a transformation); the
    server sleeps separately via :func:`chaos_stall`.
    """
    if chaos is None or not chaos.active:
        return list(frames)
    out: List[T] = []
    for frame in frames:
        if chaos.drop_rate > 0.0 and rng.random() < chaos.drop_rate:
            continue
        out.append(frame)
        if chaos.duplicate_rate > 0.0 and rng.random() < chaos.duplicate_rate:
            out.append(frame)
    if chaos.reorder_rate > 0.0:
        index = 0
        while index + 1 < len(out):
            if rng.random() < chaos.reorder_rate:
                out[index], out[index + 1] = out[index + 1], out[index]
                index += 2
            else:
                index += 1
    return out


def chaos_stall(rng: DeterministicRng, chaos: Optional[ChaosConfig]) -> float:
    """Seconds to wedge before handling a batch (0.0 = no stall drawn)."""
    if chaos is None or not chaos.active or chaos.stall_rate <= 0.0:
        return 0.0
    if rng.random() < chaos.stall_rate:
        return chaos.stall_seconds
    return 0.0


# -- addressing ----------------------------------------------------------------


Address = Union[Tuple[str, int], str]  # ("host", port) for TCP, path for Unix


def parse_address(spec: str) -> Address:
    """Parse ``unix:/path`` or ``host:port`` (also ``tcp:host:port``)."""
    if spec.startswith("unix:"):
        return spec[len("unix:"):]
    if spec.startswith("tcp:"):
        spec = spec[len("tcp:"):]
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SweepdError(
            f"bad address {spec!r}: expected unix:/path or host:port"
        )
    return (host or "127.0.0.1", int(port))


def default_address(root: Union[str, Path]) -> str:
    """Pick a listen address for *root*: Unix socket, or TCP fallback.

    Unix sockets are preferred (no port juggling, filesystem
    permissions), but ``sun_path`` is limited to ~108 bytes — deep
    checkpoint roots (CI workspaces, pytest tmp trees) fall back to a
    TCP listener on localhost with an OS-assigned port (spec ``tcp::0``;
    the bound port is recorded in the root's address file).
    """
    path = Path(root) / SOCKET_NAME
    if len(os.fsencode(path)) <= _MAX_UNIX_PATH:
        return f"unix:{path}"
    return "tcp:127.0.0.1:0"


def create_listener(spec: str) -> "socket.socket":
    """Bind + listen on *spec*; returns the listening socket."""
    address = parse_address(spec)
    if isinstance(address, str):
        path = Path(address)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
    else:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(address)
    listener.listen(64)
    listener.setblocking(False)
    return listener


def listener_address(listener: "socket.socket") -> str:
    """The canonical spec of a bound listener (reports the real port)."""
    if listener.family == socket.AF_UNIX:
        return f"unix:{listener.getsockname()}"
    host, port = listener.getsockname()[:2]
    return f"tcp:{host}:{port}"


def write_address_file(root: Union[str, Path], spec: str) -> Path:
    from repro import persist

    # Verified: the address file is the rendezvous the whole fleet needs,
    # and one refused, torn, or bit-rotted write (a storage-fault storm)
    # must not leave the server unreachable.
    return persist.write_json_verified(
        Path(root) / ADDRESS_FILE, {"address": spec}, site="address"
    )


def read_address_file(root: Union[str, Path]) -> str:
    from repro import persist
    from repro.common.errors import PersistError

    path = Path(root) / ADDRESS_FILE
    try:
        payload = persist.read_json(path, site="address")
        return str(payload["address"])
    except (OSError, PersistError, KeyError) as exc:
        raise SweepdError(
            f"no usable server address at {path} ({exc}); "
            f"is a sweepd server running on this root?"
        )


def connect(spec: str, timeout: float) -> "socket.socket":
    """Open a blocking client connection to *spec*."""
    address = parse_address(spec)
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    return sock


# -- client --------------------------------------------------------------------


class RpcClient:
    """A reconnecting, retrying, duplicate-discarding protocol client.

    One instance serves one logical peer (a worker's or the fleet
    driver's view of the server).  Not thread-safe — the worker drives
    it from a single loop, and heartbeat sends happen inline at
    checkpointer cadence.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 5.0,
        retry_window: float = 60.0,
    ) -> None:
        self.address = address
        self.timeout = float(timeout)
        self.retry_window = float(retry_window)
        self._sock: Optional[socket.socket] = None
        self._buffer = FrameBuffer()
        self._seq = 0

    # -- connection management --------------------------------------------
    def _ensure_connected(self) -> "socket.socket":
        if self._sock is None:
            self._sock = connect(self.address, self.timeout)
            self._buffer = FrameBuffer()
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- calls -------------------------------------------------------------
    def call(self, message: Message) -> Message:
        """Send *message*, await the matching reply; retry until it lands.

        Retries reuse the same ``seq``, so a request whose *reply* was
        lost is simply re-answered by the (idempotent) server.  Raises
        :class:`repro.common.errors.SweepdError` once ``retry_window``
        seconds have passed without a matched reply.
        """
        self._seq += 1
        framed = encode_frame(dict(message, seq=self._seq))
        deadline = time.monotonic() + self.retry_window
        delay = _RECONNECT_DELAY
        last_error: Optional[BaseException] = None
        while True:
            try:
                sock = self._ensure_connected()
                sock.sendall(framed)
                reply = self._await_reply(sock, self._seq, self.timeout)
                if reply is not None:
                    return reply
                raise TimeoutError(f"no reply within {self.timeout:.1f}s")
            except (OSError, TimeoutError) as exc:
                last_error = exc
                self._drop_connection()
            if time.monotonic() >= deadline:
                raise SweepdError(
                    f"rpc {message.get('type')!r} to {self.address} failed "
                    f"after {self.retry_window:.1f}s of retries "
                    f"({type(last_error).__name__}: {last_error})"
                )
            time.sleep(delay)
            delay = min(delay * 2, 1.0)

    def _await_reply(
        self, sock: "socket.socket", seq: int, timeout: float
    ) -> Optional[Message]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            sock.settimeout(remaining)
            try:
                data = sock.recv(65536)
            except socket.timeout:
                return None
            if not data:
                raise ConnectionError("server closed the connection")
            for reply in self._buffer.feed(data):
                if reply.get("seq") == seq:
                    return reply
                # A stale, duplicated, or reordered reply: discard.

    def send_oneway(self, message: Message) -> bool:
        """Best-effort fire-and-forget send (heartbeats).

        Never raises and never blocks beyond one connect/send attempt;
        returns False when the frame could not be handed to the kernel
        (the caller's simulation must not care).
        """
        try:
            sock = self._ensure_connected()
            sock.sendall(encode_frame(dict(message)))
            return True
        except (OSError, SweepdError):
            self._drop_connection()
            return False
