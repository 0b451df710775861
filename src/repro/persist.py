"""Hardened durable persistence: atomic writes, checksummed reads.

Before this module, five call sites hand-rolled the same temp + fsync +
``os.replace`` dance (checkpoints, bench documents, sweep results, the
experiment cache, the sweepd manifest) — and every one silently assumed
the filesystem never fails.  This module is the single hardened
implementation they all share:

* :func:`atomic_write_bytes` — the atomic write primitive.  A reader
  sees either the complete previous content or the complete new one,
  never a torn file; a failed write (ENOSPC, EIO, a failed fsync)
  raises :class:`repro.common.errors.PersistWriteError` with the old
  file intact and a remediation hint attached.
* :func:`write_json` / :func:`read_json` — checksummed JSON envelopes.
  The payload is written with an embedded ``__persist__`` stamp (format
  version + SHA-256 over the canonical payload encoding); the reader
  verifies and strips it, so bit-rot and lying-disk torn writes are
  *detected* instead of silently parsed.  Files written before this
  module (no stamp) still read fine and are reported as "legacy" by
  ``repro fsck``.
* storage-fault injection — every write consults the armed
  :class:`repro.faults.storage.StorageFaultInjector` (installed
  directly or via the ``REPRO_STORAGE_FAULTS`` environment hook), which
  deterministically injects ENOSPC/EIO/fsync failures, silently torn
  writes, and post-hoc bit-rot.  With nothing armed the overhead is one
  ``None`` check per write.

The checksum deliberately covers the *canonical* payload encoding
(``sort_keys``, compact separators), not the bytes on disk — so an
indented pretty-printed document (bench files) and a compact one
(manifests) verify through the same code path.
"""

from __future__ import annotations

import errno as errno_module
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.common.errors import (
    CorruptPayloadError,
    PersistError,  # noqa: F401  (re-exported: callers catch the base)
    PersistWriteError,
)

#: The embedded checksum stamp's key inside persisted JSON objects.
PERSIST_KEY = "__persist__"

#: Bump on any incompatible change to the envelope layout.
PERSIST_FORMAT_VERSION = 1

#: Remediation hint attached to every corrupt-read error.
FSCK_HINT = (
    "run `python -m repro fsck --repair <dir>` to quarantine corrupt "
    "files and promote last-good generations"
)

_ERRNO_HINTS = {
    errno_module.ENOSPC: "free disk space (or point the output at a "
                         "larger volume) and retry",
    errno_module.EDQUOT: "raise the filesystem quota and retry",
    errno_module.EIO: "the device reported an I/O error; check the "
                      "volume's health before retrying",
    errno_module.EROFS: "the filesystem is read-only; remount or pick "
                        "a writable output directory",
    errno_module.EACCES: "fix the directory permissions and retry",
}

# -- storage-fault arming ----------------------------------------------------

#: The armed injector, or the unread-environment sentinel.
_UNRESOLVED = object()
_injector: object = _UNRESOLVED


def install_storage_faults(injector) -> None:
    """Arm *injector* (a StorageFaultInjector) for this process.

    Passing None disarms injection and suppresses the environment hook
    (tests use this to guarantee a clean slate).
    """
    global _injector
    _injector = injector


def reset_storage_faults() -> None:
    """Forget any armed injector and re-read the environment lazily."""
    global _injector
    _injector = _UNRESOLVED


def active_injector():
    """The armed injector, resolving ``REPRO_STORAGE_FAULTS`` on first use."""
    global _injector
    if _injector is _UNRESOLVED:
        from repro.faults.storage import (
            STORAGE_FAULTS_ENV,
            StorageFaultInjector,
            config_from_env,
        )

        value = os.environ.get(STORAGE_FAULTS_ENV, "")
        config = config_from_env(value) if value else None
        _injector = StorageFaultInjector(config) if config is not None else None
    return _injector


# -- the atomic write primitive ---------------------------------------------

def _write_hint(exc: OSError) -> str:
    return _ERRNO_HINTS.get(
        exc.errno or 0,
        "the previous file content is intact; retry once the storage "
        "condition clears",
    )


def _flip_bit(path: Path, bit_index: int) -> None:
    """Post-hoc bit-rot: flip one bit of the (already final) file."""
    byte_index, bit = divmod(bit_index, 8)
    with open(path, "r+b") as handle:
        handle.seek(byte_index)
        current = handle.read(1)
        if not current:
            return
        handle.seek(byte_index)
        handle.write(bytes([current[0] ^ (1 << bit)]))


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    *,
    site: str = "file",
    fsync: bool = True,
) -> Path:
    """Write *data* to *path* atomically; returns the final path.

    The payload is assembled in a same-directory temp file, fsynced (so
    the rename cannot outrun the data on a crash), and moved into place
    with :func:`os.replace`.  OS-level failures raise
    :class:`PersistWriteError` with the previous content untouched.
    """
    path = Path(path)
    plan = None
    injector = active_injector()
    if injector is not None:
        plan = injector.plan_write(site, path.name, len(data))
        if plan.kind == "enospc":
            raise PersistWriteError(
                f"{site} write to {path} failed: "
                f"[Errno {errno_module.ENOSPC}] No space left on device "
                f"(injected)",
                path=path, site=site, errno=errno_module.ENOSPC,
                hint=_ERRNO_HINTS[errno_module.ENOSPC],
            )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistWriteError(
            f"{site} write to {path} failed creating its directory: {exc}",
            path=path, site=site, errno=exc.errno, hint=_write_hint(exc),
        ) from exc
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    payload = data
    if plan is not None and plan.kind == "torn":
        # A lying disk: only a prefix persists, yet the caller sees
        # success.  Detection is the reader's (checksum's) job.
        payload = data[: plan.keep_bytes]
    try:
        try:
            with open(temp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                if plan is not None and plan.kind == "eio":
                    raise OSError(
                        errno_module.EIO, "Input/output error (injected)"
                    )
                if fsync:
                    if plan is not None and plan.kind == "fsync":
                        raise OSError(
                            errno_module.EIO, "fsync failed (injected)"
                        )
                    os.fsync(handle.fileno())
            os.replace(temp, path)
        except OSError as exc:
            raise PersistWriteError(
                f"{site} write to {path} failed: {exc}",
                path=path, site=site, errno=exc.errno, hint=_write_hint(exc),
            ) from exc
    finally:
        if temp.exists():
            try:
                temp.unlink()
            except OSError:
                pass
    if plan is not None and plan.kind == "bitrot":
        _flip_bit(path, plan.flip_bit)
    return path


# -- checksummed JSON envelopes ---------------------------------------------

def payload_checksum(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical encoding of *payload* (stamp excluded)."""
    material = json.dumps(
        {k: v for k, v in payload.items() if k != PERSIST_KEY},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def write_json(
    path: Union[str, Path],
    payload: Dict[str, object],
    *,
    site: str = "json",
    indent: Optional[int] = None,
    backup: bool = False,
) -> Path:
    """Atomically write *payload* with an embedded checksum stamp.

    ``backup=True`` additionally preserves the previous file content as
    ``<name>.bak`` (a hard link where possible, else a copy) before the
    replace — the one-generation fallback manifests use to survive
    bit-rot in their primary.
    """
    path = Path(path)
    if not isinstance(payload, dict):
        raise TypeError(f"persisted payloads are JSON objects, got "
                        f"{type(payload).__name__}")
    envelope = dict(payload)
    envelope[PERSIST_KEY] = {
        "format": PERSIST_FORMAT_VERSION,
        "sha256": payload_checksum(payload),
    }
    if backup and path.exists():
        _keep_backup(path, site)
    data = json.dumps(envelope, indent=indent, sort_keys=True)
    if indent is not None:
        data += "\n"
    return atomic_write_bytes(path, data.encode("utf-8"), site=site)


#: Writes :func:`write_json_verified` makes before giving up.
VERIFIED_WRITE_TRIES = 5


def write_json_verified(
    path: Union[str, Path],
    payload: Dict[str, object],
    *,
    site: str = "json",
) -> Path:
    """:func:`write_json`, proven by reading the file back.

    Torn writes and bit-rot report success at write time; only a
    read-back shows the payload really landed.  For files whose loss a
    reader cannot recover from (a fleet's address rendezvous, a result
    about to be acknowledged), a failed or unverified write is retried
    up to :data:`VERIFIED_WRITE_TRIES` writes in all; then the last
    write's :class:`PersistWriteError` propagates.
    """
    for attempt in range(1, VERIFIED_WRITE_TRIES + 1):
        try:
            written = write_json(path, payload, site=site)
        except PersistWriteError:
            if attempt == VERIFIED_WRITE_TRIES:
                raise
            continue
        if read_json_or_none(written, site=site) == payload:
            return written
    raise PersistWriteError(
        f"{site} file {path} did not read back intact after "
        f"{VERIFIED_WRITE_TRIES} writes (torn write or bit-rot)",
        path=Path(path), site=site, hint=FSCK_HINT,
    )


def backup_path(path: Union[str, Path]) -> Path:
    """Where :func:`write_json` keeps a file's previous generation."""
    path = Path(path)
    return path.with_name(f"{path.name}.bak")


def _keep_backup(path: Path, site: str) -> None:
    target = backup_path(path)
    try:
        target.unlink()
    except FileNotFoundError:
        pass
    except OSError:
        return  # an unwritable backup must not block the primary write
    try:
        os.link(path, target)
    except OSError:
        try:
            target.write_bytes(path.read_bytes())
        except OSError:
            pass  # best-effort: losing the backup loses one fallback, not data


def verify_json_bytes(raw: bytes, path: Path, site: str) -> Dict[str, object]:
    """Validate one envelope's bytes; returns the payload sans stamp."""
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayloadError(
            f"{site} file {path} does not parse as JSON ({exc})",
            path=path, site=site, check="parse", hint=FSCK_HINT,
        ) from exc
    if not isinstance(document, dict):
        raise CorruptPayloadError(
            f"{site} file {path} holds a {type(document).__name__}, "
            f"not a JSON object",
            path=path, site=site, check="schema", hint=FSCK_HINT,
        )
    stamp = document.get(PERSIST_KEY)
    if stamp is None:
        # Legacy file from before the persist layer: readable, but there
        # is no integrity evidence.  fsck reports these as "legacy".
        return document
    if not isinstance(stamp, dict) or "sha256" not in stamp:
        raise CorruptPayloadError(
            f"{site} file {path} carries a malformed {PERSIST_KEY} stamp",
            path=path, site=site, check="stamp", hint=FSCK_HINT,
        )
    payload = {k: v for k, v in document.items() if k != PERSIST_KEY}
    digest = payload_checksum(payload)
    if digest != stamp.get("sha256"):
        raise CorruptPayloadError(
            f"{site} file {path} failed its checksum "
            f"(stamp {str(stamp.get('sha256'))[:12]}..., "
            f"content {digest[:12]}...): torn write or bit-rot",
            path=path, site=site, check="checksum", hint=FSCK_HINT,
        )
    return payload


def read_json(path: Union[str, Path], *, site: str = "json") -> Dict[str, object]:
    """Read and verify a checksummed JSON file; returns the bare payload.

    Raises :class:`FileNotFoundError` for a missing file (callers
    routinely probe), :class:`CorruptPayloadError` for anything
    unparseable or checksum-failing, and :class:`PersistError` for other
    OS-level read failures.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise PersistError(
            f"cannot read {site} file {path}: {exc}",
            path=path, site=site, hint=_write_hint(exc),
        ) from exc
    return verify_json_bytes(raw, path, site)


def read_json_or_none(
    path: Union[str, Path], *, site: str = "json"
) -> Optional[Dict[str, object]]:
    """Tolerant read: None for a missing, torn, or corrupt file."""
    try:
        return read_json(path, site=site)
    except (FileNotFoundError, PersistError):
        return None


def verify_file(path: Union[str, Path]) -> Tuple[str, str]:
    """Integrity verdict for one persisted JSON file (the fsck probe).

    Returns ``(status, detail)`` with status one of ``"ok"`` (stamped
    and verified), ``"legacy"`` (readable JSON, no stamp to verify),
    ``"corrupt"`` (unreadable, unparseable, or checksum-failing), or
    ``"missing"``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return ("missing", "no such file")
    except OSError as exc:
        return ("corrupt", f"unreadable: {exc}")
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return ("corrupt", f"does not parse as JSON ({exc})")
    if not isinstance(document, dict):
        return ("corrupt", f"holds a {type(document).__name__}, not an object")
    if PERSIST_KEY not in document:
        return ("legacy", "no checksum stamp (pre-persist file)")
    try:
        verify_json_bytes(raw, path, "fsck")
    except CorruptPayloadError as exc:
        return ("corrupt", f"checksum/stamp failure ({exc.check})")
    return ("ok", "checksum verified")
