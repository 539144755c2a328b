"""Minimal REST front-end for a running serve daemon.

A hand-rolled ``asyncio.start_server`` HTTP/1.1 endpoint — the container
ships no web framework, and the surface is four routes of JSON:

* ``GET /healthz``  — liveness + degradation flag
* ``GET /state``    — the daemon summary (placement, counters, digest)
* ``GET /telemetry``— the :mod:`repro.obs` metrics snapshot + supervisor
  down reports (the JSONL event stream is the obs event log itself)
* ``POST /submit``  — ``{"job_kind": "hp"|"be", "app": ..., "job_id"?}``
* ``POST /depart``  — ``{"job_id": ...}``

Writes go through :meth:`ServeDaemon.apply_external`, which validates
against the plane, appends to the durable events file, then applies —
so API-driven history replays after a crash exactly like
generator-driven history, and a rejected submit (400) never reaches the
log. While the daemon is still replaying its stream, writes return 503.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs import get_registry
from repro.serve.daemon import ReplayInProgressError, ServeDaemon

__all__ = ["ServeApi"]

_MAX_BODY = 64 * 1024


class ServeApi:
    """Serve the four-route JSON API for one daemon."""

    def __init__(
        self, daemon: ServeDaemon, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.daemon = daemon
        self.host = host
        self.port = port  #: 0 = ephemeral; real port set by :meth:`start`.
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - API boundary
            status, payload = 500, {"error": str(exc)}
        body = json.dumps(payload).encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            503: "Service Unavailable",
        }.get(status, "Internal Server Error")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + body
        )
        try:
            await writer.drain()
        finally:
            writer.close()

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict]:
        request = (await reader.readline()).decode("ascii", "replace").strip()
        parts = request.split(" ")
        if len(parts) != 3:
            return 400, {"error": f"bad request line: {request!r}"}
        method, path, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("ascii", "replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if length > _MAX_BODY:
            return 400, {"error": "body too large"}
        body: dict = {}
        if length:
            try:
                body = json.loads(await reader.readexactly(length))
            except (json.JSONDecodeError, asyncio.IncompleteReadError):
                return 400, {"error": "invalid JSON body"}
            if not isinstance(body, dict):
                return 400, {"error": "JSON body must be an object"}
        return await self._route(method, path, body)

    # -- routes ------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: dict
    ) -> tuple[int, dict]:
        plane = self.daemon.plane
        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "degraded": plane.degraded(),
                "applied_seq": plane.applied_seq,
            }
        if method == "GET" and path == "/state":
            return 200, self.daemon.summary()
        if method == "GET" and path == "/telemetry":
            return 200, {
                "metrics": get_registry().snapshot(),
                "downs_reported": [
                    {"node_id": nid, "reason": reason}
                    for nid, reason in self.daemon.downs_reported
                ],
            }
        if method == "POST" and path == "/submit":
            job_kind = body.get("job_kind")
            app = body.get("app")
            if job_kind not in ("hp", "be") or not app:
                return 400, {
                    "error": "submit needs job_kind in {hp, be} and app"
                }
            try:
                outcome = await self.daemon.apply_external(
                    "submit",
                    job_kind=job_kind,
                    app=app,
                    job_id=body.get("job_id"),
                )
            except ReplayInProgressError as exc:
                return 503, {"error": str(exc)}
            except ValueError as exc:
                return 400, {"error": str(exc)}
            return 200, outcome
        if method == "POST" and path == "/depart":
            job_id = body.get("job_id")
            if not job_id:
                return 400, {"error": "depart needs job_id"}
            try:
                outcome = await self.daemon.apply_external(
                    "depart", job_id=job_id
                )
            except ReplayInProgressError as exc:
                return 503, {"error": str(exc)}
            return 200, outcome
        return 404, {"error": f"no route for {method} {path}"}
