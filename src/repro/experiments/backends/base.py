"""The :class:`StoreBackend` contract shared by every persistence engine.

A backend owns exactly one artefact on disk (a checksummed JSON file, an
SQLite database, ...) and exposes the same four-verb surface to
:class:`~repro.experiments.store.ResultStore`:

``exists()``
    Is there anything on disk worth loading?
``load()``
    Read every persisted row, *detecting* (never trusting) corruption:
    a damaged artefact is quarantined to ``<path>.corrupt-<digest>`` and
    whatever rows survive are returned flagged ``salvaged``. Load never
    raises on corruption — a broken cache costs recomputation, not the
    campaign.
``save(rows, precision, dirty=...)``
    Persist the full row set. Backends that can write incrementally
    (SQLite) may persist only the ``dirty`` subset — rows changed since
    the previous save — instead of rewriting everything; whole-artefact
    backends ignore the hint. Either way the on-disk state after
    ``save`` equals ``rows``.
``checkpoint(keys, dirty, build_row, precision)``
    The store's checkpoint verb: the same end state as ``save``, but
    rows arrive *lazily* through ``build_row(key)``, so each engine
    builds only the rows it writes. SQLite builds just the ``dirty``
    keys; the file engine keeps a per-key row cache and builds each row
    once. A checkpoint therefore costs O(new results) in row building on
    both engines.

The row unit is the plain-dict projection of
:class:`~repro.experiments.runner.PairResult` (the store's
``_PERSISTED_FIELDS``); backends treat rows as opaque JSON objects keyed
by ``(hp_name, be_name, n_be, policy)``. Precision-mode bookkeeping
(DESIGN.md §10) stays in the store: backends merely record and report
the stamp, the store decides whether to refuse or drop.

Backends never share mutable state with the store (the file engine's
row cache is private to it) and open no long-lived file handles, so a
backend instance survives ``fork()`` into campaign worker processes
without care (workers never touch it — all persistence happens in the
supervising parent).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.obs import get_event_log, get_registry

__all__ = [
    "CACHE_VERSION",
    "LoadedRows",
    "StoreBackend",
    "rows_digest",
    "salvage_rows",
]

_log = logging.getLogger(__name__)

#: On-disk format version of the integrity-checked payload.
CACHE_VERSION = 2


def rows_digest(rows: list[dict]) -> str:
    """Canonical SHA-256 of the row list (stable across JSON round trips)."""
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def salvage_rows(text: str) -> list[dict]:
    """Best-effort row recovery from corrupt/truncated JSON.

    Scans forward from the first ``[`` decoding one object at a time, so
    every row that made it to disk intact before a crash truncated the
    file is recovered. Works on both the v2 wrapper (``"rows": [...``)
    and the legacy bare-list layout.
    """
    decoder = json.JSONDecoder()
    rows: list[dict] = []
    i = text.find("[")
    if i < 0:
        return rows
    i += 1
    n = len(text)
    while i < n:
        while i < n and text[i] in ", \t\r\n":
            i += 1
        if i >= n or text[i] != "{":
            break
        try:
            obj, i = decoder.raw_decode(text, i)
        except ValueError:
            break
        if isinstance(obj, dict):
            rows.append(obj)
    return rows


@dataclass
class LoadedRows:
    """What one :meth:`StoreBackend.load` produced.

    ``precision`` is the stamp found on disk (``"exact"`` for artefacts
    that predate the stamp, ``None`` when nothing trustworthy could be
    read at all — e.g. an unreadable file). ``salvaged`` rows came out
    of a quarantined artefact and carry no integrity guarantee beyond
    being structurally complete. ``corrupt_files`` counts artefacts
    that failed integrity/parse checks during this load.
    """

    rows: list[dict] = field(default_factory=list)
    precision: str | None = "exact"
    salvaged: bool = False
    corrupt_files: int = 0


class StoreBackend(ABC):
    """One persistence engine for a :class:`ResultStore` artefact."""

    #: Short engine name ("file", "sqlite") used by factories and reports.
    kind: str = "?"

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether an artefact is present to :meth:`load` from."""
        return self.path.exists()

    @abstractmethod
    def load(self) -> LoadedRows:
        """Read every persisted row (see the contract in the module doc)."""

    @abstractmethod
    def save(
        self,
        rows: list[dict],
        precision: str,
        *,
        dirty: list[dict] | None = None,
    ) -> None:
        """Persist ``rows`` (``dirty`` = changed-since-last-save hint)."""

    @abstractmethod
    def checkpoint(
        self,
        keys: Iterable[tuple],
        dirty: Iterable[tuple],
        build_row: Callable[[tuple], dict],
        precision: str,
    ) -> int:
        """Persist the store's rows, building only the ones this engine needs.

        ``keys`` lists every row key in store order, ``dirty`` the keys
        changed since the previous checkpoint (a subset, same order) and
        ``build_row(key)`` makes one row. Returns the rows written.
        """

    # -- shared quarantine plumbing --------------------------------------

    def _quarantine(self, digest_source: bytes) -> str:
        """Move the damaged artefact aside as content-addressed evidence.

        Returns the destination (or ``"<unmovable>"``); repeated crashes
        keep distinct evidence because the name embeds a digest of the
        damaged content.
        """
        get_registry().counter("store.corrupt_files").inc()
        digest = hashlib.sha256(digest_source).hexdigest()[:12]
        quarantine = self.path.with_name(self.path.name + f".corrupt-{digest}")
        try:
            os.replace(self.path, quarantine)
            moved = str(quarantine)
        except OSError:  # pragma: no cover - unlinked/permission races
            moved = "<unmovable>"
        return moved

    def _emit_corrupt(self, reason: str, moved: str, n_salvaged: int) -> None:
        _log.warning(
            "result cache %s is unreadable (%s); quarantined to %s, "
            "salvaged %d row(s)",
            self.path,
            reason,
            moved,
            n_salvaged,
        )
        log = get_event_log()
        if log.enabled:
            log.emit(
                "store.cache_corrupt",
                path=str(self.path),
                quarantined=moved,
                reason=reason,
                salvaged=n_salvaged,
                backend=self.kind,
            )

    def digest(self) -> str:
        """Canonical content digest of the persisted rows.

        Rows are sorted canonically first, so two artefacts holding the
        same results digest identically regardless of backend engine,
        write order or worker count — the equality the multi-worker
        campaign-queue acceptance test and ``make queue-smoke`` assert.
        """
        loaded = self.load()
        ordered = sorted(
            loaded.rows,
            key=lambda r: json.dumps(r, sort_keys=True, separators=(",", ":")),
        )
        return rows_digest(ordered)
