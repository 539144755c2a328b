"""Integration tests for the REST front-end (marked ``serve``)."""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.api import ServeApi
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.placement import PlaneConfig

pytestmark = pytest.mark.serve


async def request(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, data = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, json.loads(data)


def make_daemon(tmp_path) -> ServeDaemon:
    return ServeDaemon(
        ServeConfig(
            plane=PlaneConfig.for_nodes(2, slo=0.9),
            events_path=tmp_path / "events.jsonl",
            snapshot_path=tmp_path / "snap.json",
        )
    )


def with_api(tmp_path, scenario):
    async def runner():
        daemon = make_daemon(tmp_path)
        api = ServeApi(daemon)
        await api.start()
        try:
            return await scenario(daemon, api)
        finally:
            await api.stop()

    return asyncio.run(runner())


class TestRoutes:
    def test_healthz(self, tmp_path):
        async def scenario(daemon, api):
            return await request(api.port, "GET", "/healthz")

        status, body = with_api(tmp_path, scenario)
        assert status == 200
        assert body == {"ok": True, "degraded": False, "applied_seq": -1}

    def test_submit_depart_state_round_trip(self, tmp_path):
        async def scenario(daemon, api):
            status, submitted = await request(
                api.port, "POST", "/submit",
                {"job_kind": "be", "app": "bzip22"},
            )
            assert status == 200
            assert submitted["outcome"] == "accepted"
            status, _ = await request(
                api.port, "POST", "/depart",
                {"job_id": submitted["job_id"]},
            )
            assert status == 200
            return await request(api.port, "GET", "/state")

        status, state = with_api(tmp_path, scenario)
        assert status == 200
        assert state["counters"]["submitted"] == 1
        assert state["counters"]["departed"] == 1
        assert state["jobs"]["departed"] == 1

    def test_submit_validation(self, tmp_path):
        async def scenario(daemon, api):
            results = []
            results.append(await request(
                api.port, "POST", "/submit", {"job_kind": "hp"}
            ))
            results.append(await request(
                api.port, "POST", "/submit",
                {"job_kind": "hp", "app": "not-an-app"},
            ))
            results.append(await request(
                api.port, "POST", "/depart", {}
            ))
            return results

        for status, body in with_api(tmp_path, scenario):
            assert status == 400
            assert "error" in body

    def test_non_object_json_body_is_400(self, tmp_path):
        async def scenario(daemon, api):
            return [
                await request(api.port, "POST", route, body)
                for route in ("/submit", "/depart")
                for body in ([], "x", 3)
            ]

        results = with_api(tmp_path, scenario)
        assert len(results) == 6
        for status, body in results:
            assert status == 400
            assert body == {"error": "JSON body must be an object"}
        assert not (tmp_path / "events.jsonl").exists()

    def test_telemetry_reports_supervisor_downs(self, tmp_path):
        async def scenario(daemon, api):
            daemon.downs_reported.append(("node01", "crash"))
            return await request(api.port, "GET", "/telemetry")

        status, body = with_api(tmp_path, scenario)
        assert status == 200
        assert {"node_id": "node01", "reason": "crash"} in (
            body["downs_reported"]
        )
        assert "metrics" in body

    def test_telemetry_times_admission_searches(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(
            "repro.serve.placement.find_max_bes",
            lambda hp, be, *args, **kwargs: SimpleNamespace(max_bes=3),
        )

        async def scenario(daemon, api):
            for job_kind, app in (("hp", "namd1"), ("be", "bzip22")):
                await request(api.port, "POST", "/submit",
                              {"job_kind": job_kind, "app": app})
            return await request(api.port, "GET", "/telemetry")

        previous = set_registry(MetricsRegistry())
        try:
            status, body = with_api(tmp_path, scenario)
        finally:
            set_registry(previous)
        assert status == 200
        rows = {row["name"]: row for row in body["metrics"]}
        assert rows["serve.admission.search_s"]["count"] == 1
        assert rows["serve.admission.searches"]["value"] == 1

    def test_unknown_route_is_404_and_bad_request_line_400(self, tmp_path):
        async def scenario(daemon, api):
            missing = await request(api.port, "GET", "/nope")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", api.port
            )
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return missing, int(raw.split(b" ")[1])

        (status, _), bad_status = with_api(tmp_path, scenario)
        assert status == 404
        assert bad_status == 400

    def test_bad_content_length_is_400(self, tmp_path):
        async def scenario(daemon, api):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", api.port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return int(raw.split(b" ")[1])

        assert with_api(tmp_path, scenario) == 400

    def test_rejected_submit_never_poisons_the_log(self, tmp_path):
        async def scenario(daemon, api):
            status, _ = await request(
                api.port, "POST", "/submit",
                {"job_kind": "be", "app": "not-an-app"},
            )
            assert status == 400
            status, _ = await request(
                api.port, "POST", "/submit",
                {"job_kind": "be", "app": "bzip22"},
            )
            assert status == 200

        with_api(tmp_path, scenario)
        # The rejected submit left no line behind: only the accepted
        # event is durable, and a restart replays without crash-looping.
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) == 1
        fresh = make_daemon(tmp_path)
        summary = asyncio.run(fresh.run())
        assert summary["counters"]["submitted"] == 1

    def test_api_writes_are_replayable(self, tmp_path):
        async def scenario(daemon, api):
            await request(
                api.port, "POST", "/submit",
                {"job_kind": "hp", "app": "namd1", "job_id": "h0"},
            )

        with_api(tmp_path, scenario)
        fresh = make_daemon(tmp_path)
        summary = asyncio.run(fresh.run())
        assert summary["counters"]["submitted"] == 1
        assert summary["jobs"]["placed"] == 1
