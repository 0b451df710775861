"""Serialization codecs for live simulator state.

A running :class:`repro.sim.system.System` is *almost* a plain-data object
graph: configs are frozen dataclasses, tables are dicts, timelines are
``__slots__`` records, RNG streams wrap :class:`random.Random` (which
pickles its Mersenne state exactly), and bound methods and
:func:`functools.partial` objects over them pickle by reference to their
owner.  A class that needs more owns its encoding through
``__getstate__``/``__setstate__``, as
:class:`repro.snapshot.stream.ReplayStream` does.

Anything else that is unpicklable (a stray lambda, an open file, a
generator that slipped past :class:`repro.snapshot.stream.ReplayStream`)
fails loudly with a :class:`repro.common.errors.CheckpointError` naming
the offending object, instead of pickle's anonymous ``Can't pickle``.

Restoring is restricted: :class:`SnapshotUnpickler` only resolves classes
from this package's allowlist of module prefixes, so a tampered
checkpoint cannot smuggle in arbitrary constructors.
"""

from __future__ import annotations

import io
import pickle
import sys
import types
from typing import Any

from repro.common.errors import CheckpointError

#: Pinned pickle protocol: part of the checkpoint format, never implicit.
PICKLE_PROTOCOL = 4

#: Module prefixes the unpickler will resolve classes from.  Everything a
#: System graph legitimately contains lives under these.
SAFE_MODULE_PREFIXES = (
    "repro.",
    "builtins",
    "collections",
    "random",
    "enum",
    "copyreg",
    "functools",
    "pathlib",
    "dataclasses",
)

def _importable(func: types.FunctionType) -> bool:
    """True when *func* is reachable as ``module.qualname`` (pickles by ref)."""
    if "<locals>" in func.__qualname__ or "<lambda>" in func.__qualname__:
        return False
    target = sys.modules.get(func.__module__)
    for part in func.__qualname__.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is func


class SnapshotPickler(pickle.Pickler):
    """A pickler that understands the simulator's live-object idioms."""

    def reducer_override(self, obj):  # noqa: C901 - dispatch ladder
        if isinstance(obj, types.FunctionType):
            if _importable(obj):
                # Module-level functions pickle by reference; only
                # closures and lambdas have no stable name to restore by.
                return NotImplemented
            raise CheckpointError(
                f"cannot checkpoint function {obj.__qualname__!r}: plain "
                f"functions/closures in simulator state need an owner with "
                f"__getstate__ (see docs/CHECKPOINTS.md)"
            )
        if isinstance(obj, types.GeneratorType):
            raise CheckpointError(
                f"cannot checkpoint live generator {obj.__name__!r}: wrap "
                f"the stream in repro.snapshot.stream.ReplayStream so it "
                f"can be rebuilt and fast-forwarded deterministically"
            )
        return NotImplemented


class SnapshotUnpickler(pickle.Unpickler):
    """An unpickler restricted to the simulator's own modules."""

    def find_class(self, module: str, name: str):
        if not any(
            module == prefix or module.startswith(prefix)
            for prefix in SAFE_MODULE_PREFIXES
        ):
            raise CheckpointError(
                f"checkpoint references disallowed class {module}.{name}"
            )
        return super().find_class(module, name)


def dumps(obj: Any) -> bytes:
    """Serialize *obj* with the snapshot codecs; raises CheckpointError."""
    buffer = io.BytesIO()
    try:
        SnapshotPickler(buffer, protocol=PICKLE_PROTOCOL).dump(obj)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"state graph is not serializable: {type(exc).__name__}: {exc}"
        ) from exc
    return buffer.getvalue()


def loads(payload: bytes) -> Any:
    """Deserialize a :func:`dumps` payload; raises CheckpointError."""
    try:
        return SnapshotUnpickler(io.BytesIO(payload)).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint payload is corrupt: {type(exc).__name__}: {exc}"
        ) from exc
