"""Streaming prediction sessions: the table, the wire, and the client.

The unit half drives :class:`SessionTable` with a fake clock (TTL/LRU
eviction, admission backpressure, event bounds, counters).  The
end-to-end half boots a real server and streams traces through real
sockets with the real :mod:`repro.service.client`, pinning the
tentpole claim: a streamed session's final ``run`` object is
byte-identical to a batch accuracy run over the same event sequence.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

import repro
from repro.common.types import Message, MessageKind
from repro.eval.cli import main as cli_main
from repro.service.client import (
    SessionClientError,
    record_app_trace,
    replay_session,
)
from repro.service.sessions import (
    SessionBoundExceeded,
    SessionTable,
    SessionTableFull,
    UnknownSession,
    parse_event,
    parse_ndjson_events,
)

from tests.oracles import run_predictors_reference
from tests.service.test_service import http_request, read_response, run_with_service


#: An event line nested 3,000 objects deep (about 30 KB), past the
#: interpreter's default recursion limit of 1,000.
DEEP_LINE = b'{"kind": ' * 3000 + b'"read"' + b"}" * 3000


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_table(**overrides):
    clock = FakeClock()
    options = {"max_sessions": 4, "ttl_s": 60.0, "max_events": 100, "clock": clock}
    options.update(overrides)
    return SessionTable(**options), clock


def msg(kind=MessageKind.READ, node=0, block=0):
    return Message(kind=kind, node=node, block=block)


# ----------------------------------------------------------------------
# event codec
# ----------------------------------------------------------------------
class TestEventCodec:
    def test_round_trip(self):
        message = parse_event({"kind": "write", "node": 3, "block": 17}, num_procs=4)
        assert message == Message(kind=MessageKind.WRITE, node=3, block=17)

    @pytest.mark.parametrize(
        "event, complaint",
        [
            ("not-an-object", "JSON object"),
            ({"kind": "sneeze", "node": 0, "block": 0}, "bad event kind"),
            ({"kind": "read", "node": 4, "block": 0}, "out of range"),
            ({"kind": "read", "node": -1, "block": 0}, "non-negative"),
            ({"kind": "read", "node": True, "block": 0}, "non-negative"),
            ({"kind": "read", "node": 0, "block": "b"}, "block must be"),
            ({"kind": "read", "node": 0, "block": 0, "x": 1}, "unknown event field"),
            ({"kind": ["read"], "node": 0, "block": 0}, "bad event kind"),
            ({"kind": {"read": 1}, "node": 0, "block": 0}, "bad event kind"),
        ],
    )
    def test_bad_events_are_rejected(self, event, complaint):
        with pytest.raises(ValueError, match=complaint):
            parse_event(event, num_procs=4)

    def test_ndjson_errors_name_the_line(self):
        first = b'{"kind": "read", "node": 0, "block": 0}\n'
        for second in (
            b'{"kind": "nope"}',
            DEEP_LINE,
            b'{"kind": "read", "node": 0, "block": ' + b"7" * 5000 + b"}",
        ):
            with pytest.raises(ValueError, match="^line 2: "):
                parse_ndjson_events(first + second + b"\n", num_procs=4)

    def test_ndjson_skips_blank_lines(self):
        body = b'\n{"kind": "read", "node": 1, "block": 2}\n\n'
        assert parse_ndjson_events(body, num_procs=4) == [
            Message(kind=MessageKind.READ, node=1, block=2)
        ]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
class TestSessionTable:
    def test_open_feed_close_lifecycle(self):
        table, clock = make_table()
        session = table.open("MSP", depth=1, num_procs=4)
        lines = table.feed(session.id, [msg(MessageKind.WRITE, node=n) for n in (0, 1)])
        assert all(line.endswith("\n") for line in lines)
        assert [json.loads(line)["seq"] for line in lines] == [1, 2]
        summary = table.close(session.id)
        assert summary["events"] == 2
        assert set(summary["run"]) == {
            "accuracy",
            "coverage",
            "correct_fraction",
            "average_pte",
            "overhead_bytes",
        }
        assert table.stats() == {
            "max_sessions": 4,
            "ttl_s": 60.0,
            "max_events": 100,
            "active": 0,
            "opened": 1,
            "closed": 1,
            "evicted": 0,
            "events_observed": 2,
            "rejected_full": 0,
            "rejected_bound": 0,
        }
        with pytest.raises(UnknownSession):
            table.feed(session.id, [msg()])

    def test_full_table_rejects_with_ttl_derived_hint(self):
        table, clock = make_table(max_sessions=2)
        first = table.open("MSP")
        clock.advance(45.0)
        table.open("Cosmos")
        with pytest.raises(SessionTableFull) as excinfo:
            table.open("VMSP")
        # The LRU session (first, idle 45s of a 60s TTL) frees its slot
        # in 15s — that is the hint, not a constant.
        assert excinfo.value.retry_after_s == pytest.approx(15.0)
        assert table.rejected_full == 1
        # Once it expires, admission succeeds again.
        clock.advance(16.0)
        table.open("VMSP")
        assert table.evicted == 1 and first.id not in [s.id for s in table.sessions()]

    def test_ttl_eviction_is_lazy_and_lru_ordered(self):
        table, clock = make_table()
        stale = table.open("MSP")
        clock.advance(30.0)
        fresh = table.open("MSP")
        clock.advance(31.0)  # stale idle 61s, fresh idle 31s
        with pytest.raises(UnknownSession):
            table.peek(stale.id)
        assert table.peek(fresh.id) is fresh
        assert table.evicted == 1

    def test_touch_resets_the_idle_clock(self):
        table, clock = make_table()
        session = table.open("MSP")
        for _ in range(5):
            clock.advance(45.0)  # past nothing: each feed re-arms the TTL
            table.feed(session.id, [msg()])
        assert table.peek(session.id) is session
        assert table.evicted == 0

    def test_status_peek_does_not_touch(self):
        table, clock = make_table()
        session = table.open("MSP")
        clock.advance(45.0)
        table.peek(session.id)
        clock.advance(30.0)  # 75s since last *activity*; peek didn't reset
        with pytest.raises(UnknownSession):
            table.peek(session.id)

    def test_event_bound_rejects_batch_atomically(self):
        table, clock = make_table(max_events=10)
        session = table.open("MSP", num_procs=4)
        table.feed(session.id, [msg() for _ in range(8)])
        with pytest.raises(SessionBoundExceeded):
            table.feed(session.id, [msg() for _ in range(3)])
        # The rejected batch left the session untouched: not even its
        # first two events were applied.
        assert session.events == 8
        assert table.rejected_bound == 1 and table.events_observed == 8
        # An exactly-fitting batch still goes through.
        table.feed(session.id, [msg(), msg()])
        assert session.events == 10

    def test_unknown_predictor_and_bad_parameters(self):
        table, _ = make_table()
        with pytest.raises(ValueError, match="unknown predictor"):
            table.open("Oracle")
        with pytest.raises(ValueError, match="depth"):
            table.open("MSP", depth=0)
        with pytest.raises(ValueError, match="num_procs"):
            table.open("MSP", num_procs=0)
        assert table.opened == 0


# ----------------------------------------------------------------------
# end to end: real server, real sockets, real client
# ----------------------------------------------------------------------
TRACE_KWARGS = {"num_procs": 4, "iterations": 2}


async def post_ndjson(port, target, payload):
    """POST a raw NDJSON body; (status, JSON payload) of a non-streamed
    answer such as an error."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        await writer.drain()
        status, body, _headers = await read_response(reader)
        return status, body
    finally:
        writer.close()


class TestSessionsOverHttp:
    @pytest.mark.parametrize("predictor", ["Cosmos", "MSP", "VMSP"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_streamed_session_matches_batch_run_bit_for_bit(
        self, tmp_path, predictor, depth
    ):
        """The tentpole golden test: stream ≡ batch, byte-identical."""
        events = record_app_trace("em3d", **TRACE_KWARGS)
        reference = run_predictors_reference(
            "em3d", depth=depth, predictors=(predictor,), **TRACE_KWARGS
        )[predictor]
        expected = json.dumps(
            {
                "accuracy": reference.accuracy,
                "coverage": reference.coverage,
                "correct_fraction": reference.correct_fraction,
                "average_pte": reference.average_pte,
                "overhead_bytes": reference.overhead_bytes,
            },
            sort_keys=True,
        )

        async def scenario(service):
            lines = []
            summary = await asyncio.to_thread(
                replay_session,
                f"http://127.0.0.1:{service.port}",
                events,
                predictor=predictor,
                depth=depth,
                num_procs=TRACE_KWARGS["num_procs"],
                batch_size=100,
                on_line=lines.append,
            )
            assert json.dumps(summary["run"], sort_keys=True) == expected
            # Every event earned exactly one prediction line, in order.
            assert [line["seq"] for line in lines] == list(
                range(1, len(events) + 1)
            )
            # The per-event running totals end where the summary ends.
            assert lines[-1]["accuracy"] == summary["run"]["accuracy"]
            assert lines[-1]["coverage"] == summary["run"]["coverage"]

        run_with_service(tmp_path, scenario)

    def test_events_stream_back_chunked(self, tmp_path):
        """The /events response really uses chunked framing on the wire."""

        async def scenario(service):
            status, opened = await http_request(
                service.port, "/v1/sessions", method="POST", body={"num_procs": 4}
            )
            assert status == 201 and opened["predictor"] == "MSP"
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                payload = b'{"kind": "read", "node": 1, "block": 0}\n' * 3
                writer.write(
                    f"POST {opened['events_url']} HTTP/1.1\r\nHost: t\r\n"
                    f"Connection: close\r\nContent-Length: {len(payload)}\r\n"
                    "\r\n".encode() + payload
                )
                await writer.drain()
                assert b"200" in await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                assert headers["transfer-encoding"] == "chunked"
                assert headers["x-session-events"] == "3"
                assert "content-length" not in headers
                # Decode the chunked body by hand: size line, data, CRLF.
                body = b""
                while True:
                    size = int((await reader.readline()).strip(), 16)
                    if size == 0:
                        await reader.readline()
                        break
                    body += await reader.readexactly(size)
                    await reader.readexactly(2)
                lines = [json.loads(l) for l in body.splitlines()]
                assert [line["seq"] for line in lines] == [1, 2, 3]
            finally:
                writer.close()

        run_with_service(tmp_path, scenario)

    def test_session_error_paths_over_http(self, tmp_path):
        async def scenario(service):
            # Unknown session: events, status, and close all 404.
            for method, target in [
                ("POST", "/v1/sessions/sess-99999/events"),
                ("GET", "/v1/sessions/sess-99999"),
                ("DELETE", "/v1/sessions/sess-99999"),
            ]:
                status, body = await http_request(
                    service.port, target, method=method,
                    body={} if method == "POST" else None,
                )
                assert status == 404 and "no such session" in body["error"]
            # Bad open bodies.
            status, body = await http_request(
                service.port, "/v1/sessions", method="POST",
                body={"predictor": "Oracle"},
            )
            assert status == 400 and "unknown predictor" in body["error"]
            status, body = await http_request(
                service.port, "/v1/sessions", method="POST", body={"colour": "red"}
            )
            assert status == 400 and "unknown session field" in body["error"]
            # A bad event line is a clean 400 naming the line, and the
            # batch is not applied.
            status, opened = await http_request(
                service.port, "/v1/sessions", method="POST", body={"num_procs": 2}
            )
            assert status == 201
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                payload = (
                    b'{"kind": "read", "node": 0, "block": 0}\n'
                    b'{"kind": "read", "node": 9, "block": 0}\n'
                )
                writer.write(
                    f"POST {opened['events_url']} HTTP/1.1\r\nHost: t\r\n"
                    f"Connection: close\r\nContent-Length: {len(payload)}\r\n"
                    "\r\n".encode() + payload
                )
                await writer.drain()
                assert b"400" in await reader.readline()
            finally:
                writer.close()
            status, body = await http_request(
                service.port, f"/v1/sessions/{opened['session']}"
            )
            assert status == 200 and body["events"] == 0

        run_with_service(tmp_path, scenario)

    def test_non_string_kind_is_a_400_naming_the_line(self, tmp_path):
        """A list or dict ``kind`` is a bad event, answered 400 naming
        its line, not an unhashable-key crash answered 500, and so is a
        line nested past the recursion limit; the batch is not applied."""

        async def scenario(service):
            status, opened = await http_request(
                service.port, "/v1/sessions", method="POST", body={"num_procs": 2}
            )
            assert status == 201
            for second in (
                b'{"kind": ["read"], "node": 1, "block": 2}',
                b'{"kind": {"read": 1}, "node": 1, "block": 2}',
                DEEP_LINE,
            ):
                payload = b'{"kind": "read", "node": 0, "block": 0}\n' + second + b"\n"
                status, body = await post_ndjson(
                    service.port, opened["events_url"], payload
                )
                assert status == 400, body
                assert "line 2" in body["error"]
                if second is not DEEP_LINE:
                    assert "bad event kind" in body["error"]
            status, body = await http_request(
                service.port, f"/v1/sessions/{opened['session']}"
            )
            assert status == 200 and body["events"] == 0

        run_with_service(tmp_path, scenario)

    def test_table_full_maps_to_429_with_retry_after(self, tmp_path):
        async def scenario(service):
            status, _ = await http_request(
                service.port, "/v1/sessions", method="POST", body={}
            )
            assert status == 201
            status, body, headers = await http_request(
                service.port, "/v1/sessions", method="POST", body={},
                return_headers=True,
            )
            assert status == 429
            assert "session table is full" in body["error"]
            assert body["retry_after_s"] >= 1.0
            assert int(headers["retry-after"]) >= 1
            stats = service.sessions.stats()
            assert stats["rejected_full"] == 1 and stats["active"] == 1

        run_with_service(tmp_path, scenario, max_sessions=1)

    def test_event_bound_maps_to_413(self, tmp_path):
        async def scenario(service):
            events = record_app_trace("em3d", num_procs=4, iterations=1)
            with pytest.raises(SessionClientError) as excinfo:
                await asyncio.to_thread(
                    replay_session,
                    f"http://127.0.0.1:{service.port}",
                    events,
                    num_procs=4,
                    batch_size=len(events),
                )
            assert excinfo.value.status == 413

        run_with_service(tmp_path, scenario, session_max_events=10)

    def test_session_cli_records_replays_and_saves_traces(self, tmp_path, capsys):
        """``repro-paper session`` end to end: record from an app, save
        the trace, replay the saved file — identical summaries."""
        trace_file = tmp_path / "em3d.ndjson"

        async def scenario(service):
            url = f"http://127.0.0.1:{service.port}"
            rc = await asyncio.to_thread(
                cli_main,
                [
                    "session", "--url", url, "--app", "em3d",
                    "--num-procs", "4", "--iterations", "1",
                    "--save-trace", str(trace_file),
                ],
            )
            assert rc == 0
            rc = await asyncio.to_thread(
                cli_main,
                [
                    "session", "--url", url, "--trace", str(trace_file),
                    "--num-procs", "4",
                ],
            )
            assert rc == 0

        run_with_service(tmp_path, scenario)
        lines = capsys.readouterr().out.strip().splitlines()
        recorded, replayed = (json.loads(line) for line in lines)
        assert recorded["events"] == replayed["events"] > 0
        assert recorded["run"] == replayed["run"]
        assert trace_file.read_text().count("\n") == recorded["events"]

    def test_statz_and_session_list_reflect_lifecycle(self, tmp_path):
        async def scenario(service):
            events = record_app_trace("em3d", num_procs=4, iterations=1)
            await asyncio.to_thread(
                replay_session,
                f"http://127.0.0.1:{service.port}",
                events,
                num_procs=4,
            )
            status, opened = await http_request(
                service.port, "/v1/sessions", method="POST", body={"num_procs": 4}
            )
            assert status == 201
            status, listing = await http_request(service.port, "/v1/sessions")
            assert status == 200
            assert [s["session"] for s in listing["sessions"]] == [opened["session"]]
            status, statz = await http_request(service.port, "/statz")
            assert status == 200
            sessions = statz["sessions"]
            assert sessions["opened"] == 2
            assert sessions["closed"] == 1
            assert sessions["active"] == 1
            assert sessions["events_observed"] == len(events)

        run_with_service(tmp_path, scenario)


# ----------------------------------------------------------------------
# the serve process
# ----------------------------------------------------------------------
class TestServeProcess:
    def test_sigint_stops_serve_with_sessions_open(self, tmp_path):
        """``repro-paper serve`` exits 0 within 5 s of SIGINT while two
        idle keep-alive connections each hold an open, fed session;
        SIGINT is how a benchmark run stops its server."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval.cli", "serve", "--port", "0",
             "--no-cache"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        connections = []
        try:
            announce = proc.stdout.readline()
            match = re.search(r"listening on http://[0-9.]+:([0-9]+)", announce)
            assert match, f"no listening line: {announce!r}"
            batch = b'{"kind": "write", "node": 1, "block": 0}\n' * 5
            for _ in range(2):
                conn = HTTPConnection("127.0.0.1", int(match.group(1)), timeout=10)
                connections.append(conn)
                conn.request("POST", "/v1/sessions", body=b'{"num_procs": 4}')
                answer = conn.getresponse()
                opened = json.loads(answer.read())
                assert answer.status == 201, opened
                conn.request("POST", opened["events_url"], body=batch)
                answer = conn.getresponse()
                assert answer.status == 200
                assert answer.read().count(b"\n") == 5
            started = time.monotonic()
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail(f"serve outlived SIGINT by 5 s: {proc.communicate()[1]}")
            assert code == 0, proc.stderr.read()
            assert time.monotonic() - started < 5
        finally:
            for conn in connections:
                conn.close()
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
