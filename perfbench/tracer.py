"""Span tracing for the benchmark's traced run.

The simulator has no spans of its own, so the benchmark records them from
outside: :class:`SpanTracer` replaces a layer's public function with a
wrapper that times each call.  The wrappers are installed on the *class*
(or module) before any ``System`` is built, because several hot paths
capture bound methods at construction time: ``Core`` hoists
``Mmu.translate`` and ``CacheHierarchy.access``, ``PageWalker`` keeps the
PageSeer controller's ``mmu_hint``, and the controllers call methods of
the ``__slots__`` ``MemoryDevice`` objects they pre-bind.  Wrapping an
instance after the build would miss all of them.

Spans are kept in memory as aggregates: per span name the call count, the
total time and the self time (a span's duration minus the part covered
by its child spans), plus how often each (parent, child) pair occurred.
:meth:`SpanTracer.table` hands them out once the run has ended.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called as ``observe(args, result)`` after a traced call returns.
Observer = Callable[[tuple, Any], None]


class SpanTracer:
    """Aggregating span recorder with self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        #: One frame per open span, each holding the summed duration of
        #: its finished children; the bottom frame collects top-level spans.
        self._frames: List[List[float]] = [[0.0]]
        self._names: List[Optional[str]] = [None]
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (parent name or None, child name) -> calls
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        #: Plain event counts recorded by observers (e.g. ops advanced).
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Return *fn* wrapped in a span called *name*."""
        clock = self._clock
        frames = self._frames
        names = self._names
        edges = self.edges
        record = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            parent = names[-1]
            frames.append(frame)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                names.pop()
                frames[-1][0] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, owner: Any, attr: str, name: str,
                observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, observe))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def table(self) -> Dict[str, Any]:
        """The aggregates as plain JSON-ready data."""
        return {
            "totals": {
                name: {"calls": int(calls), "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "edges": [
                {"parent": parent, "child": child, "calls": calls}
                for (parent, child), calls in sorted(
                    self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1])
                )
            ],
        }


def install_stamp(owner: type, attr: str, on_call: Callable[[Any], None]) -> Callable[[], None]:
    """Call ``on_call(self)`` on entry to ``owner.attr``; returns an undo.

    The untraced run's only hooks are these entry stamps (the warm-up /
    measure boundary and the controller's finalize), so they carry no
    span bookkeeping.
    """
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def stamped(self, *args, **kwargs):
        on_call(self)
        return original(self, *args, **kwargs)

    setattr(owner, attr, stamped)
    return lambda: setattr(owner, attr, original)
