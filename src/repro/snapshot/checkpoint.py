"""Checkpoint files: atomic, versioned, checksummed system snapshots.

File layout (all little pieces are validated on load, in order)::

    REPRO-CKPT v8\\n                  magic + format version, ASCII
    {json header}\\n                  one line of metadata
    <zlib-compressed pickle payload>  the System object graph

The header records the format version again (the magic is for ``file``,
the header for programs), a SHA-256 checksum and byte count of the
compressed payload, and enough run context (scheme, workload, scale,
seed, phase, progress) for ``repro resume`` to describe what it is about
to continue without unpickling anything.

Writes are crash-safe: the file goes through
:func:`repro.persist.atomic_write_bytes` (same-directory temp, fsync,
:func:`os.replace`), so a reader either sees the complete old checkpoint
or the complete new one — never a torn file.  Any validation failure on
load raises :class:`repro.common.errors.CorruptCheckpointError` naming
the file, the failed check (magic/version/header/truncation/checksum/
payload), and the ``repro fsck`` remediation.

Rolling checkpoints are *generational*: before ``latest.ckpt`` is
replaced, its previous content is preserved as ``gen-<n>.ckpt`` (last N
kept).  :func:`load_checkpoint_with_fallback` walks latest-then-newest-
generation and restores the first file that verifies, so one corrupted
``latest.ckpt`` (bit-rot, a lying disk) costs a few thousand re-executed
ops — not the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import persist
from repro.common.errors import CheckpointError, CorruptCheckpointError
from repro.snapshot import codec

#: Bump on any incompatible change to the payload encoding or header.
#: Version 3: controllers hold per-device line entries (bound
#: ``MemoryDevice.access_finish`` or a ``functools.partial`` over
#: ``FaultRecovery.access``); v2 payloads name the line routers these
#: replaced, which no longer exist.  Version 4: each ``HotPageTable``
#: carries its count-1 index and ``PctEntry`` is a named tuple; a v3
#: payload holds HPTs without the index and ``PctEntry`` dataclass
#: instances.  Version 5: PoM, MemPod and CAMEO keep their remap state in
#: ``SlotMap`` objects (each MemPod pod is one); a v4 payload holds it in
#: the controllers' and pods' own dicts.  Version 6: each ``HotPageTable``
#: carries ``next_decay``, each ``MemoryDevice`` its ``_row_stride`` slot
#: and no ``_prefix`` slot, and a ``SwapBufferPool`` no stats-key prefix;
#: a v5 payload restores tables and devices in the old shapes.  Version
#: 7: the Swap Driver owns its frozen-page set, line-usage bitmaps and
#: swap listeners (each ``SwapRecord`` names its occupant), the PRT has
#: no event hook, ``SystemConfig`` has no ``model_contention``, and a
#: checked system carries its sanitizer's request entry and HPT
#: listeners in the payload; a v6 payload holds the injected callables
#: and closures these replaced.  Version 8: every TLB is a ``Tlb`` and
#: every cache level a ``SetAssociativeCache``; a v7 payload holds the
#: struct-of-arrays L1-TLB and L1/L2 cache models, which no longer
#: exist.
CHECKPOINT_FORMAT_VERSION = 8

MAGIC = b"REPRO-CKPT v8\n"

#: Conventional file name for the rolling checkpoint of one run.
LATEST_NAME = "latest.ckpt"

#: Preserved previous generations of ``latest.ckpt`` (newest = highest n).
GENERATION_RE = re.compile(r"^gen-(\d{8})\.ckpt$")

#: Generations of ``latest.ckpt`` preserved by default (beyond latest).
DEFAULT_KEEP_GENERATIONS = 2


@contextmanager
def quiesced(system) -> Iterator[None]:
    """Detach the system's armed checkpointer for the pickle window.

    An armed :class:`repro.snapshot.hooks.Checkpointer` holds signal
    state and open deadlines, which do not belong in a checkpoint; it is
    detached around serialization and restored before the simulation
    takes another step.  Everything else, the sanitizer's hooks
    included, pickles as it stands.
    """
    checkpointer = system.checkpointer
    system.checkpointer = None
    try:
        yield
    finally:
        system.checkpointer = checkpointer


def _serialize(system) -> bytes:
    """The compressed pickle payload of *system*, its objects untouched.

    Pickling reads every object's ``__dict__``, which on CPython 3.11+
    permanently moves the object off its inline-attribute fast path: a
    run slowed ~10% after its first checkpoint.  Where ``fork`` is safe
    (no other Python threads), a copy-on-write child pickles the graph —
    the same bytes — and streams them back over a pipe, so the live
    system never leaves the fast path.  All file I/O stays here.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        with quiesced(system):
            return zlib.compress(codec.dumps(system), 6)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        # The child must never unwind into the caller's frames (it would
        # go on simulating): every outcome, even an interrupt, becomes a
        # reply, and the child leaves through os._exit.
        os.close(read_fd)
        try:
            with quiesced(system):
                reply = b"\0" + zlib.compress(codec.dumps(system), 6)
        except BaseException as exc:
            reply = b"\1" + str(exc).encode("utf-8", "replace")
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(reply)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            reply = pipe.read()
    finally:
        os.waitpid(pid, 0)
    if reply[:1] != b"\0":
        raise CheckpointError(
            reply[1:].decode("utf-8", "replace")
            or "checkpoint serializer process died"
        )
    return reply[1:]


def _header_for(system, payload: bytes) -> Dict[str, object]:
    progress = system.progress
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "checksum_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "scheme": system.scheme,
        "workload": system.workload.name,
        "scale": system.scale,
        "seed": system.config.seed,
        "cores": len(system.cores),
        "steps_total": system.steps_total,
        "phase": None if progress is None else progress.phase,
        "ops_executed": [core.ops_executed for core in system.cores],
        "check_level": system.config.check.level,
        "faults_enabled": system.config.faults.enabled,
    }


def save_checkpoint(
    system,
    path: Union[str, Path],
    *,
    keep_generations: int = 0,
) -> Path:
    """Serialize *system* to *path* atomically; returns the final path.

    ``keep_generations > 0`` first preserves the existing file content
    as the next ``gen-<n>.ckpt`` (pruned to the newest N), so a later
    corruption of *path* can fall back to a verified older state.
    Storage failures surface as
    :class:`repro.common.errors.PersistWriteError`; the previous file
    content is intact when they do.
    """
    payload = _serialize(system)
    header = _header_for(system, payload)
    path = Path(path)
    if keep_generations > 0:
        rotate_generations(path, keep_generations)
    blob = (
        MAGIC
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + payload
    )
    return persist.atomic_write_bytes(path, blob, site="checkpoint")


def rotate_generations(path: Path, keep: int) -> Optional[Path]:
    """Preserve *path*'s current content as the next generation file.

    Best-effort by design: rotation failure (quota, permissions) must
    never block the new checkpoint — it only narrows the fallback
    window.  Returns the generation path written, or None.
    """
    path = Path(path)
    if keep <= 0 or not path.exists():
        return None
    existing = generation_files(path.parent)
    next_number = 1
    if existing:
        next_number = (
            int(GENERATION_RE.match(existing[-1].name).group(1)) + 1
        )
    target = path.parent / f"gen-{next_number:08d}.ckpt"
    try:
        os.link(path, target)
    except OSError:
        # Cross-device fallback: the source bytes are an already-stamped
        # checkpoint, and a torn copy only disqualifies this generation.
        try:
            target.write_bytes(path.read_bytes())  # repro-lint: disable=RL105
        except OSError:
            return None
    # Prune: the newest ``keep`` generations survive (plus latest itself).
    for stale in generation_files(path.parent)[:-keep]:
        try:
            stale.unlink()
        except OSError:
            pass
    return target


def generation_files(directory: Union[str, Path]) -> List[Path]:
    """The preserved generations under *directory*, oldest first."""
    directory = Path(directory)
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [
        directory / name for name in sorted(names) if GENERATION_RE.match(name)
    ]


def _split(raw: bytes, path: Path):
    if not raw.startswith(MAGIC[: len(b"REPRO-CKPT")]):
        raise CorruptCheckpointError(
            f"{path}: not a repro checkpoint (bad magic)",
            path=path, check="magic",
        )
    if not raw.startswith(MAGIC):
        found = raw.split(b"\n", 1)[0].decode("ascii", "replace")
        raise CorruptCheckpointError(
            f"{path}: unsupported checkpoint format {found!r} "
            f"(this build reads {MAGIC.decode().strip()!r})",
            path=path, check="version",
            hint="run the build that wrote this checkpoint, or restart "
                 "the run fresh",
        )
    rest = raw[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CorruptCheckpointError(
            f"{path}: truncated checkpoint (no header line)",
            path=path, check="truncation",
        )
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(
            f"{path}: unreadable header ({exc})", path=path, check="header"
        ) from exc
    if not isinstance(header, dict):
        raise CorruptCheckpointError(
            f"{path}: header holds a {type(header).__name__}, not an object",
            path=path, check="header",
        )
    return header, rest[newline + 1:]


def read_checkpoint_header(path: Union[str, Path]) -> Dict[str, object]:
    """Return the validated metadata header without unpickling the state."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header, payload = _split(raw, path)
    _validate(header, payload, path)
    return header


def _validate(header: Dict[str, object], payload: bytes, path: Path) -> None:
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CorruptCheckpointError(
            f"{path}: checkpoint format version {version} is not supported "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})",
            path=path, check="version",
            hint="run the build that wrote this checkpoint, or restart "
                 "the run fresh",
        )
    expected_bytes = header.get("payload_bytes")
    if expected_bytes != len(payload):
        raise CorruptCheckpointError(
            f"{path}: truncated checkpoint "
            f"(header promises {expected_bytes} payload bytes, found {len(payload)})",
            path=path, check="truncation",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("checksum_sha256"):
        raise CorruptCheckpointError(
            f"{path}: checksum mismatch (file corrupt or edited): "
            f"header {header.get('checksum_sha256')}, payload {digest}",
            path=path, check="checksum",
        )


def load_checkpoint(path: Union[str, Path]):
    """Restore a :class:`repro.sim.system.System` from *path*.

    The restored system has its sanitizer (if the run had one) attached
    and no checkpointer armed; call :meth:`System.resume_run` to continue the
    interrupted run to completion.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header, payload = _split(raw, path)
    _validate(header, payload, path)
    try:
        blob = zlib.decompress(payload)
    except zlib.error as exc:
        raise CorruptCheckpointError(
            f"{path}: payload does not decompress ({exc})",
            path=path, check="payload",
        ) from exc
    try:
        system = codec.loads(blob)
    except Exception as exc:  # unpickling raises anything the payload says
        raise CorruptCheckpointError(
            f"{path}: payload does not unpickle ({type(exc).__name__}: {exc})",
            path=path, check="payload",
        ) from exc

    from repro.sim.system import System

    if not isinstance(system, System):
        raise CorruptCheckpointError(
            f"{path}: payload is a {type(system).__name__}, not a System",
            path=path, check="payload",
        )
    system.checkpointer = None
    return system


def verify_checkpoint(path: Union[str, Path]) -> Tuple[str, str]:
    """Integrity-probe one checkpoint file without unpickling anything.

    Returns ``(status, detail)`` where status is ``"ok"``, ``"corrupt"``,
    or ``"missing"`` — the checkpoint leg of ``repro fsck``.  The probe
    validates magic, header, payload length, checksum, and that the
    payload decompresses; it deliberately never calls ``codec.loads``
    (fsck must be safe to run on untrusted directories).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return "missing", "no such file"
    except OSError as exc:
        return "missing", f"unreadable: {exc}"
    try:
        header, payload = _split(raw, path)
        _validate(header, payload, path)
        zlib.decompress(payload)
    except CorruptCheckpointError as exc:
        return "corrupt", f"failed check: {exc.check}"
    except zlib.error as exc:
        return "corrupt", f"failed check: payload ({exc})"
    return "ok", f"{len(raw)} bytes, step {sum(header.get('ops_executed') or [])}"


def load_checkpoint_with_fallback(directory: Union[str, Path]):
    """Restore the newest verifiable checkpoint under *directory*.

    Tries ``latest.ckpt`` first, then each preserved generation newest
    first.  Returns ``(system, loaded_path, skipped)`` where *skipped*
    lists ``(path, error)`` pairs for every corrupt candidate passed
    over, or ``(None, None, skipped)`` when nothing under *directory*
    verifies.
    """
    directory = Path(directory)
    candidates: List[Path] = []
    latest = directory / LATEST_NAME
    if latest.exists():
        candidates.append(latest)
    candidates.extend(reversed(generation_files(directory)))
    skipped: List[Tuple[Path, CheckpointError]] = []
    for candidate in candidates:
        try:
            system = load_checkpoint(candidate)
        except CheckpointError as exc:
            skipped.append((candidate, exc))
            continue
        return system, candidate, skipped
    return None, None, skipped
