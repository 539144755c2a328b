"""Checksummed atomic control-plane snapshots.

The daemon checkpoints :meth:`ControlPlane.snapshot_state` with the same
crash-safety idioms the result store earned in DESIGN.md §9/§11: a
payload carrying its own SHA-256, written by
:func:`repro.util.durable.write_durably` (per-pid temp file, fsync,
atomic rename over the target, fsync of the parent directory). A reader therefore sees either the previous snapshot or the new one,
never a torn hybrid.

The state is serialised once, canonically (sorted keys, no spaces); the
SHA-256 is taken over those bytes and the same bytes are spliced into
the file, so a save costs one ``json.dumps`` of a state that, from
version 2 on, is sized by the live jobs (DESIGN.md §14). Versions 1 and
2 share the checksum rule and both load; any other version is
quarantined like a checksum mismatch.

Unlike the result cache, a snapshot has a second source of truth — the
events file. A corrupt snapshot is quarantined (``<name>.corrupt.N``)
and :func:`load_snapshot` returns ``None``; the daemon then rebuilds by
replaying events from seq 0, which lands on the identical state because
the plane is a pure fold over its inputs. Corruption costs time, never
correctness.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

from repro.obs import get_event_log, get_registry
from repro.util.durable import write_durably

__all__ = ["SNAPSHOT_VERSION", "load_snapshot", "save_snapshot"]

SNAPSHOT_VERSION = 2

#: Versions :func:`load_snapshot` reads (the plane tells their states
#: apart, see :meth:`ControlPlane.from_snapshot`).
_READABLE = (1, 2)

_log = logging.getLogger(__name__)


def _canonical(state: dict) -> bytes:
    return json.dumps(
        state, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def save_snapshot(path: Path | str, state: dict) -> None:
    """Atomically persist ``state`` (a ``snapshot_state()`` dict).

    A failed write leaves the previous snapshot in place and no temp
    file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = _canonical(state)
    digest = hashlib.sha256(body).hexdigest()
    # The payload's keys in sorted order, so the file is itself
    # canonical JSON.
    write_durably(
        path,
        b'{"sha256":"%s","state":%s,"version":%d}'
        % (digest.encode("ascii"), body, SNAPSHOT_VERSION),
    )
    get_registry().counter("serve.snapshot.saves").inc()
    log = get_event_log()
    if log.enabled:
        log.emit(
            "serve.snapshot.save",
            path=str(path),
            applied_seq=state.get("applied_seq"),
        )


def _quarantine(path: Path, raw: bytes, reason: str) -> None:
    """Move a corrupt snapshot aside so replay can rebuild cleanly."""
    target = path.with_name(path.name + ".corrupt")
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        target.write_bytes(raw)
        path.unlink()
        moved = str(target)
    except OSError:  # pragma: no cover - read-only snapshot dir
        moved = None
    _log.warning(
        "snapshot %s is corrupt (%s); %s — rebuilding by event replay",
        path,
        reason,
        f"quarantined to {moved}" if moved else "could not quarantine",
    )
    get_registry().counter("serve.snapshot.corrupt").inc()
    log = get_event_log()
    if log.enabled:
        log.emit(
            "serve.snapshot.corrupt",
            path=str(path),
            reason=reason,
            quarantined=moved,
        )


def load_snapshot(path: Path | str) -> dict | None:
    """Load and verify a snapshot; ``None`` means "replay from scratch".

    ``None`` covers both the benign case (no snapshot yet) and the
    corrupt one (bad JSON, missing state, missing or unknown version,
    checksum mismatch — the artefact is quarantined first). Callers
    never need to distinguish: event replay reconstructs the exact same
    plane either way.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError:  # pragma: no cover - I/O error reading snapshot
        _log.warning("snapshot %s unreadable; rebuilding by replay", path)
        return None
    try:
        payload = json.loads(raw.decode("utf-8", errors="replace"))
    except json.JSONDecodeError:
        _quarantine(path, raw, "invalid JSON")
        return None
    if not isinstance(payload, dict):
        _quarantine(path, raw, "not an object")
        return None
    state = payload.get("state")
    if not isinstance(state, dict):
        _quarantine(path, raw, "no state object")
        return None
    version = payload.get("version")
    if type(version) is not int or version not in _READABLE:
        _quarantine(path, raw, f"unknown snapshot version {version!r}")
        return None
    recorded = payload.get("sha256")
    actual = hashlib.sha256(_canonical(state)).hexdigest()
    if recorded != actual:
        _quarantine(
            path, raw, f"checksum mismatch ({recorded} recorded, {actual})"
        )
        return None
    get_registry().counter("serve.snapshot.loads").inc()
    return state
