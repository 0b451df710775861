"""Incremental analysis cache: per-file facts keyed by content hash.

The cache unit is the serialized :class:`ModuleFacts` of one file; the
key is ``relpath:sha256(content)``, so any edit invalidates exactly that
file's entry and whole-program propagation (symbol table, call graph,
fixpoints) is recomputed from facts — which is cheap — on every run.
The file is stamped with ``FACTS_VERSION``, a digest of the analyzer's
own sources: a cache written by another version of the analyzer, or an
unreadable one, silently degrades to a cold run.  The cache is a pure
accelerator, never a correctness input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Set

from repro.lint.program.facts import FACTS_VERSION, ModuleFacts


def content_key(relpath: str, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"{relpath}:{digest}"


class AnalysisCache:
    """Load/store extracted module facts between lint runs."""

    def __init__(self, path: Optional[Path]):
        self.path = path
        self._entries: Dict[str, Dict[str, object]] = {}
        self._seen: Set[str] = set()
        self.hits = 0
        self.misses = 0
        if path is not None and path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("version") == FACTS_VERSION
                and isinstance(payload.get("entries"), dict)
            ):
                self._entries = payload["entries"]

    def get(self, relpath: str, text: str) -> Optional[ModuleFacts]:
        key = content_key(relpath, text)
        self._seen.add(key)
        raw = self._entries.get(key)
        if raw is None:
            self.misses += 1
            return None
        facts = ModuleFacts.from_dict(raw)
        if facts is None:
            self.misses += 1
            return None
        self.hits += 1
        return facts

    def put(self, relpath: str, text: str, facts: ModuleFacts) -> None:
        key = content_key(relpath, text)
        self._seen.add(key)
        self._entries[key] = facts.to_dict()

    def save(self) -> None:
        """Persist, pruning entries for files not seen this run."""
        if self.path is None:
            return
        entries = {key: self._entries[key] for key in sorted(self._seen & set(self._entries))}
        payload = {"version": FACTS_VERSION, "entries": entries}
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:
            pass  # a read-only checkout still lints fine, just cold
