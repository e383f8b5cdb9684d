"""End-to-end tests: a real server on an ephemeral port, real sockets."""

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

import repro
from repro.eval.cli import main as cli_main
from repro.harness import ParallelRunner, ResultStore, SweepPoint
from repro.service import ReproService, ServiceConfig

from tests.service.conftest import CALLS, gate
from tests.service.test_jobs import settle


async def http_request(
    port, target, method="GET", body=None, connection="close", return_headers=False
):
    """One request over a fresh connection; returns (status, json_payload).

    With ``return_headers=True`` a third element carries the response
    headers as a lower-cased-name dict, for tests asserting on
    ``Retry-After`` / ``Allow`` and friends.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = f"{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n"
        if body is not None:
            payload = json.dumps(body).encode()
            head += f"Content-Length: {len(payload)}\r\n\r\n"
            writer.write(head.encode() + payload)
        else:
            writer.write((head + "\r\n").encode())
        await writer.drain()
        status, payload, headers = await read_response(reader)
        if return_headers:
            return status, payload, headers
        return status, payload
    finally:
        writer.close()


async def read_response(reader):
    """One JSON response off the stream: (status, payload, headers),
    header names lower-cased."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    data = await reader.readexactly(int(headers["content-length"]))
    return status, json.loads(data), headers


def service_config(tmp_path, **overrides):
    options = {"port": 0, "cache_dir": str(tmp_path / "cache")}
    options.update(overrides)
    return ServiceConfig(**options)


def run_with_service(tmp_path, scenario, **config_overrides):
    """Boot a service on an ephemeral port, run ``scenario(service)``."""

    async def main():
        service = ReproService(service_config(tmp_path, **config_overrides))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestSmoke:
    def test_healthz_and_statz(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(service.port, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, stats = await http_request(service.port, "/statz")
            assert status == 200
            assert stats["point_requests"] == 0
            assert stats["queue_depth_bound"] == service.config.max_pending
            assert stats["runner"]["cache_dir"].endswith("cache")

        run_with_service(tmp_path, scenario)

    def test_statz_counts_a_peer_write(self, tmp_path):
        """An entry another store writes into an unclaimed replica's
        cache dir (as a peer process or a CLI sweep would) shows in the
        next /statz."""

        async def scenario(service):
            _status, stats = await http_request(service.port, "/statz")
            assert stats["runner"]["cache_entries"] == 0
            ResultStore(tmp_path / "cache").store(
                SweepPoint.make("analytic", {"panel": "accuracy", "points": 3}),
                {"series": []},
            )
            _status, stats = await http_request(service.port, "/statz")
            assert stats["runner"]["cache_entries"] == 1

        run_with_service(tmp_path, scenario)

    def test_unknown_route_404_and_wrong_method_405(self, tmp_path):
        async def scenario(service):
            assert (await http_request(service.port, "/nope"))[0] == 404
            status, _ = await http_request(service.port, "/v1/point", method="POST", body={})
            assert status == 405
            status, _ = await http_request(service.port, "/v1/sweep")
            assert status == 405

        run_with_service(tmp_path, scenario)

    @pytest.mark.parametrize(
        "path, allowed",
        [
            ("/healthz", "GET"),
            ("/statz", "GET"),
            ("/v1/experiments", "GET"),
            ("/v1/experiments/figure7", "GET"),
            ("/v1/point", "GET"),
            ("/v1/sweep", "POST"),
            ("/v1/jobs", "GET"),
            ("/v1/jobs/job-00001", "GET"),
            ("/v1/sessions", "GET, POST"),
            ("/v1/sessions/sess-00001", "DELETE, GET"),
            ("/v1/sessions/sess-00001/events", "POST"),
        ],
    )
    def test_every_405_names_the_allowed_methods(self, tmp_path, path, allowed):
        """RFC 9110: a 405 MUST carry an Allow header; every route does."""

        async def scenario(service):
            status, body, headers = await http_request(
                service.port, path, method="PUT", body={}, return_headers=True
            )
            assert status == 405
            assert headers["allow"] == allowed
            assert allowed in body["error"]

        run_with_service(tmp_path, scenario)

    def test_slow_request_gets_408_not_silent_close(self, tmp_path):
        """A started-but-stalled request is not an idle connection: it
        gets an explicit 408 once request_timeout_s expires."""

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # headers promise a body that never arrives
                writer.write(
                    b"POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n"
                )
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), timeout=5)
                assert b"408" in status_line
            finally:
                writer.close()

        run_with_service(tmp_path, scenario, request_timeout_s=0.2)

    def test_keep_alive_serves_multiple_requests_per_connection(self, tmp_path):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                for _ in range(3):
                    writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status, _payload, _headers = await read_response(reader)
                    assert status == 200
            finally:
                writer.close()

        run_with_service(tmp_path, scenario)

    def test_idle_keep_alive_connection_is_closed(self, tmp_path):
        """After a keep-alive response, a client that sends nothing more
        is disconnected once keep_alive_s has passed, with no more bytes."""
        keep_alive_s = 0.3

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                status, _payload, headers = await read_response(reader)
                assert status == 200 and headers["connection"] == "keep-alive"
                idle_from = time.monotonic()
                rest = await asyncio.wait_for(reader.read(), keep_alive_s + 1.0)
                assert rest == b""
                assert time.monotonic() - idle_from >= keep_alive_s / 2
            finally:
                writer.close()

        run_with_service(tmp_path, scenario, keep_alive_s=keep_alive_s)

    def test_malformed_request_gets_400_then_close(self, tmp_path):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(b"GARBAGE\r\n\r\n")
                await writer.drain()
                status, payload, headers = await asyncio.wait_for(
                    read_response(reader), 5.0
                )
                assert status == 400
                assert "malformed request line" in payload["error"]
                assert headers["connection"] == "close"
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            finally:
                writer.close()

        run_with_service(tmp_path, scenario)


class TestPointEndpoint:
    def test_miss_then_hit_and_cli_sees_the_same_entry(self, tmp_path, capsys):
        async def scenario(service):
            target = "/v1/point?kind=analytic&panel=accuracy&points=3"
            status, first = await http_request(service.port, target)
            assert status == 200 and first["cached"] is False
            status, second = await http_request(service.port, target)
            assert status == 200 and second["cached"] is True
            assert second["result"] == first["result"]
            assert second["elapsed_s"] == first["elapsed_s"]  # original compute time
            return first

        first = run_with_service(tmp_path, scenario)

        # The CLI sweep over the same cache dir reports the point cached
        # and prints a bit-identical result.
        argv = [
            "sweep", "--kind", "analytic", "--axis", "panel=accuracy",
            "--set", "points=3", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert "1 cached" in captured.err
        cli_result = json.loads(captured.out.strip().splitlines()[0])["result"]
        assert cli_result == first["result"]

    def test_prewarmed_cache_hit_runs_zero_computations(self, tmp_path):
        # Warm the cache exactly as a CLI run would...
        warm = ParallelRunner(store=ResultStore(tmp_path / "cache"))
        from repro.harness import SweepPoint

        point = SweepPoint.make("svc_probe", {"payload": 13})
        warmed = warm.run([point])
        assert CALLS["default"] == 1
        CALLS.clear()

        # ...then serve it: same bytes back, zero runner invocations.
        async def scenario(service):
            status, body = await http_request(
                service.port, "/v1/point?kind=svc_probe&payload=13"
            )
            assert status == 200
            assert body["cached"] is True
            assert body["result"] == warmed.values[0]
            assert CALLS["default"] == 0
            assert not service.runner.pool_started

        run_with_service(tmp_path, scenario)

    def test_query_literals_match_cli_parsing(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(
                service.port,
                "/v1/point?kind=svc_probe&payload=%7B%22depth%22%3A%204%7D",
            )
            assert status == 200
            assert body["params"]["payload"] == {"depth": 4}
            assert body["result"]["echo"] == {"depth": 4}

        run_with_service(tmp_path, scenario)

    def test_production_process_registers_only_paper_kinds(self):
        """Only the test suite registers ``selftest`` (whose
        ``behavior=crash`` kills its host process): a fresh interpreter
        that imports the service and the CLI can run and serve nothing
        but the paper's kinds."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = (
            "import repro.service, repro.eval.cli\n"
            "from repro.harness import runner_kinds\n"
            "print(' '.join(runner_kinds()))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        kinds = tuple(done.stdout.split())
        assert kinds == ("accuracy", "analytic", "speculation")

    @pytest.mark.parametrize(
        "claimed, reads", [(False, 1), (True, 2)], ids=["unclaimed", "claimed"]
    )
    def test_miss_is_read_once_per_check(self, tmp_path, store_loads, claimed, reads):
        """The pool reads a miss once before computing it; a claimed
        replica reads it once more, under the claim."""

        async def scenario(service):
            loads = store_loads(service.runner.store)
            target = "/v1/point?kind=svc_probe&payload=1"
            status, body = await http_request(service.port, target)
            assert status == 200 and body["cached"] is False
            assert len(loads) == reads

        claims = {"claim_dir": str(tmp_path / "cache" / "claims")} if claimed else {}
        run_with_service(tmp_path, scenario, **claims)

    def test_bad_requests_are_400(self, tmp_path):
        async def scenario(service):
            assert (await http_request(service.port, "/v1/point"))[0] == 400
            status, body = await http_request(service.port, "/v1/point?kind=nope")
            assert status == 400 and "unknown kind" in body["error"]
            status, _ = await http_request(
                service.port, "/v1/point?kind=svc_probe&_timeout_s=fast"
            )
            assert status == 400
            status, _ = await http_request(
                service.port, "/v1/point?kind=svc_probe&_bogus=1"
            )
            assert status == 400

        run_with_service(tmp_path, scenario)


    def test_runner_failure_is_500(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(
                service.port, "/v1/point?kind=svc_probe&fail=true"
            )
            assert status == 500 and "sweep point failed" in body["error"]

        run_with_service(tmp_path, scenario)

    def test_concurrent_identical_requests_coalesce_over_http(self, tmp_path):
        async def scenario(service):
            target = "/v1/point?kind=svc_probe&payload=1&gate=http"
            requests = [
                asyncio.create_task(http_request(service.port, target))
                for _ in range(4)
            ]
            await settle(lambda: service.pool.in_flight == 1)
            gate("http").set()
            responses = await asyncio.gather(*requests)
            assert [status for status, _ in responses] == [200] * 4
            assert {body["result"]["echo"] for _, body in responses} == {1}
            assert CALLS["default"] == 1
            assert service.pool.stats.coalesced == 3

        run_with_service(tmp_path, scenario)

    def test_backpressure_returns_429_over_http(self, tmp_path):
        async def scenario(service):
            blocked = asyncio.create_task(
                http_request(service.port, "/v1/point?kind=svc_probe&payload=1&gate=full")
            )
            await settle(lambda: service.pool.in_flight == 1)
            status, body, headers = await http_request(
                service.port,
                "/v1/point?kind=svc_probe&payload=2",
                return_headers=True,
            )
            assert status == 429
            assert "queue is full" in body["error"]
            # The hint is derived from queue depth: full queue → 5.0s,
            # and it travels as a real RFC 9110 Retry-After header too
            # (delta-seconds, rounded up to whole seconds).
            assert body["retry_after_s"] == 5.0
            assert headers["retry-after"] == "5"
            gate("full").set()
            status, _ = await blocked
            assert status == 200

        run_with_service(tmp_path, scenario, max_pending=1)

    def test_timeout_returns_504_and_retry_hits_cache(self, tmp_path):
        async def scenario(service):
            target = "/v1/point?kind=svc_probe&payload=1&gate=slow"
            status, body = await http_request(service.port, target)
            assert status == 504 and "still" in body["error"]
            gate("slow").set()
            await settle(lambda: service.pool.in_flight == 0)
            status, body = await http_request(service.port, target)
            assert status == 200 and body["cached"] is True
            assert CALLS["default"] == 1

        run_with_service(tmp_path, scenario, timeout_s=0.05)

    def test_point_in_flight_at_stop_is_answered(self, tmp_path):
        """Stopping drains the computation a request waits on, and that
        request is answered before the event loop's shutdown cancels
        the connections, as when SIGINT stops ``serve``."""
        answers = []

        def client(port):
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/v1/point?kind=svc_probe&payload=1&gate=stop")
                answer = conn.getresponse()
                answers.append((answer.status, json.loads(answer.read())))
            finally:
                conn.close()

        async def main():
            service = ReproService(service_config(tmp_path))
            await service.start()
            thread = threading.Thread(target=client, args=(service.port,))
            thread.start()
            await settle(lambda: service.pool.in_flight == 1)
            # Release the computation only once stop() is draining it.
            asyncio.get_running_loop().call_later(0.1, gate("stop").set)
            await service.stop()
            return thread

        thread = asyncio.run(main())
        thread.join(timeout=10)
        assert len(answers) == 1
        status, body = answers[0]
        assert status == 200 and body["result"]["echo"] == 1


class TestSweepJobs:
    def test_submit_poll_fetch_results(self, tmp_path):
        async def scenario(service):
            status, accepted = await http_request(
                service.port,
                "/v1/sweep",
                method="POST",
                body={"kind": "svc_probe", "axes": {"payload": [1, 2, 3]}},
            )
            assert status == 202 and accepted["points"] == 3
            poll = accepted["poll"]
            for _ in range(200):
                status, job = await http_request(service.port, poll)
                assert status == 200
                if job["state"] != "running":
                    break
                await asyncio.sleep(0.01)
            assert job["state"] == "done" and job["done"] == 3
            status, detailed = await http_request(service.port, poll + "?results=1")
            assert [p["result"]["echo"] for p in detailed["points"]] == [1, 2, 3]
            status, listing = await http_request(service.port, "/v1/jobs")
            assert accepted["job"] in [j["job"] for j in listing["jobs"]]

        run_with_service(tmp_path, scenario)

    def test_sweep_validation_errors(self, tmp_path):
        async def scenario(service):
            cases = [
                ({"kind": "nope", "axes": {"a": [1]}}, 400),
                ({"kind": "svc_probe"}, 400),  # no axes
                ({"kind": "svc_probe", "axes": {"a": 1}}, 400),  # not a list
                ({"kind": "svc_probe", "axes": {"a": []}}, 400),  # empty axis
                ([1, 2], 400),  # not an object
            ]
            for body, expected in cases:
                status, _ = await http_request(
                    service.port, "/v1/sweep", method="POST", body=body
                )
                assert status == expected, body
            # grid size cap
            status, payload = await http_request(
                service.port,
                "/v1/sweep",
                method="POST",
                body={"kind": "svc_probe", "axes": {"a": list(range(40)), "b": list(range(40))}},
            )
            assert status == 413 and "split the sweep" in payload["error"]
            status, _ = await http_request(service.port, "/v1/jobs/job-missing")
            assert status == 404

        run_with_service(tmp_path, scenario)


class TestExperimentsEndpoint:
    def test_catalog_names_paper_and_beyond(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(service.port, "/v1/experiments")
            assert status == 200
            by_name = {e["name"]: e for e in body["experiments"]}
            assert by_name["figure7"]["paper"] is True
            assert by_name["scaling32"]["paper"] is False
            assert "32/64 nodes" in by_name["scaling32"]["description"]
            assert "speculation" in body["kinds"]

        run_with_service(tmp_path, scenario)

    def test_unknown_named_experiment_is_404(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(
                service.port, "/v1/experiments/figure99"
            )
            assert status == 404 and "figure99" in body["error"]
            status, _ = await http_request(
                service.port, "/v1/experiments/figure6", method="POST", body={}
            )
            assert status == 405

        run_with_service(tmp_path, scenario)

    def test_static_experiment_returns_inline(self, tmp_path):
        async def scenario(service):
            status, body = await http_request(service.port, "/v1/experiments/table1")
            assert status == 200
            assert body["experiment"] == "table1" and body["static"] is True
            names = [row[0] for row in body["result"]]
            assert any("Node" in name or "node" in name for name in names)

        run_with_service(tmp_path, scenario)

    def test_named_experiment_runs_as_background_job(self, tmp_path):
        async def scenario(service):
            status, accepted = await http_request(
                service.port, "/v1/experiments/figure6"
            )
            assert status == 202
            assert accepted["experiment"] == "figure6"
            assert accepted["points"] == 4  # the four Figure 6 panels
            for _ in range(500):
                status, job = await http_request(service.port, accepted["poll"])
                assert status == 200
                if job["state"] != "running":
                    break
                await asyncio.sleep(0.01)
            assert job["state"] == "done" and job["done"] == 4
            assert job["experiment"] == "figure6"
            # the job's points landed in the shared cache: fetching one
            # over /v1/point is now a pure hit
            status, point = await http_request(
                service.port, "/v1/point?kind=analytic&panel=accuracy&points=21"
            )
            assert status == 200 and point["cached"] is True

        run_with_service(tmp_path, scenario)

    def test_experiment_points_match_cli_driver(self, tmp_path):
        """The service job runs exactly the grid the CLI driver runs."""
        from repro.eval.experiments import accuracy_spec, experiment_spec

        assert experiment_spec("figure7").points() == accuracy_spec(False).points()
        spec = experiment_spec("figure7", fast=True)
        assert spec.points() == accuracy_spec(True).points()
        assert experiment_spec("table1") is None


class TestTraceCacheStats:
    def test_statz_reports_trace_cache_events(self, tmp_path):
        async def scenario(service):
            target = (
                "/v1/point?kind=accuracy&app=em3d&num_procs=8&iterations=3"
            )
            status, first = await http_request(service.port, target)
            assert status == 200 and first["cached"] is False
            status, stats = await http_request(service.port, "/statz")
            trace = stats["trace_cache"]
            assert trace["misses"] == 1 and trace["hits"] == 0
            assert trace["hit_rate"] == 0.0
            assert trace["dir"].endswith("cache")
            assert trace["entries"] == 1
            # the point-cache count excludes the compiled trace
            assert stats["runner"]["cache_entries"] == 1
            # a different depth recompiles nothing: the trace is shared
            status, second = await http_request(
                service.port, target + "&depth=2"
            )
            assert status == 200 and second["cached"] is False
            status, stats = await http_request(service.port, "/statz")
            trace = stats["trace_cache"]
            assert trace["misses"] == 1 and trace["hits"] == 1
            assert trace["hit_rate"] == 0.5

        run_with_service(tmp_path, scenario)

    def test_trace_entries_follow_the_disk(self, tmp_path):
        """The trace cache writes through its own store; /statz counts
        its entries from the directory, so each new trace shows."""

        async def scenario(service):
            trace_dir = tmp_path / "cache" / "trace"
            for app, traces in (("em3d", 1), ("ocean", 2)):
                target = f"/v1/point?kind=accuracy&app={app}&num_procs=4&iterations=2"
                status, body = await http_request(service.port, target)
                assert status == 200 and body["cached"] is False
                _status, stats = await http_request(service.port, "/statz")
                assert stats["trace_cache"]["entries"] == traces
                assert len(list(trace_dir.glob("*.json"))) == traces

        run_with_service(tmp_path, scenario)

    def test_no_store_means_no_trace_cache(self, tmp_path):
        """``serve --no-cache`` turns the trace cache off as ``sweep
        --no-cache`` does, whatever was configured before."""
        from repro.trace import configure_trace_cache

        earlier_dir = tmp_path / "earlier-traces"
        configure_trace_cache(earlier_dir)

        async def scenario(service):
            target = "/v1/point?kind=accuracy&app=em3d&num_procs=4&iterations=2"
            status, body = await http_request(service.port, target)
            assert status == 200 and body["cached"] is False
            status, stats = await http_request(service.port, "/statz")
            assert stats["trace_cache"]["dir"] is None
            assert stats["trace_cache"]["entries"] is None

        run_with_service(tmp_path, scenario, cache_dir=None)
        assert not list(earlier_dir.glob("**/*.json"))

    def test_point_entry_records_trace_provenance(self, tmp_path):
        async def scenario(service):
            target = (
                "/v1/point?kind=accuracy&app=em3d&num_procs=8&iterations=3"
            )
            status, _body = await http_request(service.port, target)
            assert status == 200
            store = service.runner.store
            from repro.harness import SweepPoint

            entry = store.load_entry(
                SweepPoint.make(
                    "accuracy", {"app": "em3d", "num_procs": 8, "iterations": 3}
                )
            )
            assert entry.meta == {"trace_cache": {"hits": 0, "misses": 1}}

        run_with_service(tmp_path, scenario)


class TestClaimedService:
    @pytest.mark.parametrize(
        "conflict", [{"refresh": True}, {"cache_dir": None}], ids=["refresh", "no-cache"]
    )
    def test_claims_need_the_cache_unrefreshed(self, tmp_path, conflict):
        """Claims divide a grid through the shared cache: every replica
        recomputing every point (refresh), or a replica with no cache
        to share, defeats them.  A refused replica creates nothing."""
        config = service_config(tmp_path, claim_dir=str(tmp_path / "claims"), **conflict)
        with pytest.raises(ValueError):
            ReproService(config)
        assert not (tmp_path / "claims").exists()

    def test_statz_claims_null_without_claim_dir(self, tmp_path):
        async def scenario(service):
            status, stats = await http_request(service.port, "/statz")
            assert status == 200
            assert stats["claims"] is None

        run_with_service(tmp_path, scenario)

    def test_claimed_replica_reports_claim_stats(self, tmp_path):
        """A replica configured with a claim dir wraps its runner and
        surfaces held/stolen/released counters in /statz."""

        async def scenario(service):
            target = "/v1/point?kind=svc_probe&payload=1"
            status, body = await http_request(service.port, target)
            assert status == 200 and body["cached"] is False
            status, stats = await http_request(service.port, "/statz")
            claims = stats["claims"]
            assert claims["owner"] == "replica-test"
            assert claims["claimed"] == 1
            assert claims["computed"] == 1
            assert claims["released"] == 1
            assert claims["held"] == 0 and claims["stolen"] == 0
            assert claims["dir"].endswith("claims")

        run_with_service(
            tmp_path,
            scenario,
            claim_dir=str(tmp_path / "cache" / "claims"),
            worker_id="replica-test",
        )
