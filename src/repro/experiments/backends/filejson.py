"""Checksummed atomic-rename JSON file backend (the historical format).

This is the persistence engine :class:`~repro.experiments.store.
ResultStore` has always had, factored behind the :class:`StoreBackend`
contract with byte-identical artefacts: a v2 payload carrying a row
count and a SHA-256 checksum, written by
:func:`repro.util.durable.write_durably` (temporary file, fsync, atomic
rename over the target, fsync of the parent directory; DESIGN.md
§9/§11).

Temporary files are per-process — ``<name>.tmp.<pid>`` — so sibling
caches like ``grid.json`` and ``grid.jsonl`` no longer collide on one
``grid.tmp``, and two processes saving the same path cannot tear each
other's in-flight write (the final ``rename`` still makes the *last*
writer win whole-file; concurrent writers that must merge belong on the
SQLite backend). Stale temps left by dead processes are swept on the
next save.
"""

from __future__ import annotations

import json
import logging
import os
import re
from pathlib import Path

from repro.experiments.backends.base import (
    CACHE_VERSION,
    LoadedRows,
    StoreBackend,
    rows_digest,
    salvage_rows,
)
from repro.util.durable import temp_path, write_durably

__all__ = ["FileBackend"]

_log = logging.getLogger(__name__)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM: alive, not ours
        return True
    return True


class FileBackend(StoreBackend):
    """One whole-file JSON artefact, torn-write-proof, single writer."""

    kind = "file"

    def __init__(self, path: Path | str) -> None:
        super().__init__(path)
        #: Rows already built, by key: every checkpoint rewrites the whole
        #: artefact, but only the rows it has not seen are built.
        self._rows: dict[tuple, dict] = {}

    # -- persistence -----------------------------------------------------

    def checkpoint(self, keys, dirty, build_row, precision) -> int:
        """Rewrite the whole artefact, building only uncached rows.

        Dirty keys are rebuilt; every other row comes from the per-key
        cache, so each result's row is built once per backend.
        """
        cache = self._rows
        for key in dirty:
            cache.pop(key, None)
        rows = []
        for key in keys:
            row = cache.get(key)
            if row is None:
                row = cache[key] = build_row(key)
            rows.append(row)
        self.save(rows, precision)
        return len(rows)

    def _tmp_path(self):
        """This process's private temp name (``<name>.tmp.<pid>``)."""
        return temp_path(self.path)

    def _sweep_stale_temps(self) -> int:
        """Remove temp files abandoned by processes that no longer exist.

        Only this backend's own ``<name>.tmp.<pid>`` scheme is swept —
        a temp whose pid is still alive belongs to a concurrent writer
        mid-save and is left alone.
        """
        removed = 0
        for tmp in self.path.parent.glob(self.path.name + ".tmp.*"):
            suffix = tmp.name.rsplit(".", 1)[-1]
            if not suffix.isdigit() or _pid_alive(int(suffix)):
                continue
            try:
                tmp.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent sweep
                pass
        return removed

    def save(
        self,
        rows: list[dict],
        precision: str,
        *,
        dirty: list[dict] | None = None,
    ) -> None:
        """Atomically rewrite the whole artefact (``dirty`` is ignored).

        payload → per-pid temp file → ``fsync`` → ``rename`` over the
        target → ``fsync`` of the parent directory
        (:func:`~repro.util.durable.write_durably`; a failed write
        leaves the old artefact and no temp file). The payload embeds a
        row count and SHA-256 checksum that :meth:`load` verifies.
        """
        payload = {
            "version": CACHE_VERSION,
            "precision": precision,
            "n_rows": len(rows),
            "sha256": rows_digest(rows),
            "rows": rows,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_temps()
        write_durably(self.path, json.dumps(payload).encode("utf-8"))

    # -- loading ---------------------------------------------------------

    def _quarantine_corrupt(self, raw: str, reason: str) -> list[dict]:
        """Set a corrupt cache aside and salvage what rows survive."""
        moved = self._quarantine(raw.encode("utf-8", errors="replace"))
        salvaged = salvage_rows(raw)
        self._emit_corrupt(reason, moved, len(salvaged))
        return salvaged

    def load(self) -> LoadedRows:
        try:
            # Decode permissively: a binary-garbage artefact is corrupt,
            # not fatal — it flows into the quarantine path below just
            # like invalid JSON.
            raw = self.path.read_bytes().decode("utf-8", errors="replace")
        except OSError:
            _log.warning(
                "result cache %s is unreadable (I/O error); all results "
                "will be recomputed",
                self.path,
            )
            return LoadedRows(precision=None, corrupt_files=1)
        salvaged = False
        # Caches that predate the precision stamp were all written by the
        # bitwise-exact solver.
        file_precision = "exact"
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            rows = self._quarantine_corrupt(raw, "invalid JSON")
            salvaged = True
            # The v2 payload leads with its precision stamp, so it
            # usually survives tail truncation; recover it textually so
            # salvaged fast-mode rows cannot masquerade as exact ones.
            match = re.search(r'"precision"\s*:\s*"(exact|fast)"', raw)
            if match:
                file_precision = match.group(1)
        else:
            if isinstance(payload, list):
                # Legacy v1 layout: a bare row list, no integrity data.
                rows = payload
            elif isinstance(payload, dict):
                file_precision = payload.get("precision", "exact")
                rows = payload.get("rows")
                if not isinstance(rows, list):
                    rows = self._quarantine_corrupt(raw, "no row array")
                    salvaged = True
                elif payload.get("n_rows") != len(rows):
                    rows = self._quarantine_corrupt(
                        raw,
                        f"row count mismatch ({payload.get('n_rows')} "
                        f"recorded, {len(rows)} present)",
                    )
                    salvaged = True
                elif payload.get("sha256") != rows_digest(rows):
                    rows = self._quarantine_corrupt(raw, "checksum mismatch")
                    salvaged = True
            else:
                rows = self._quarantine_corrupt(raw, "unexpected payload type")
                salvaged = True
        return LoadedRows(
            rows=rows,
            precision=file_precision,
            salvaged=salvaged,
            corrupt_files=1 if salvaged else 0,
        )
