"""Unit tests for the hand-rolled HTTP/1.1 framing."""

import asyncio

import pytest

from repro.service.wire import (
    Request,
    Response,
    WireError,
    read_request,
    write_response,
)


def parse(raw: bytes):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(inner())


class TestRequestParsing:
    def test_get_with_query(self):
        request = parse(b"GET /v1/point?kind=accuracy&depth=2 HTTP/1.1\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/point"
        assert request.query == {"kind": "accuracy", "depth": "2"}
        assert request.keep_alive  # HTTP/1.1 default

    def test_percent_encoding_decoded(self):
        request = parse(b'GET /v1/point?config=%7B%22num_nodes%22%3A32%7D HTTP/1.1\r\n\r\n')
        assert request.query["config"] == '{"num_nodes":32}'

    def test_headers_lowercased_and_connection_close(self):
        request = parse(
            b"GET / HTTP/1.1\r\nHost: example\r\nConnection: Close\r\n\r\n"
        )
        assert request.headers["host"] == "example"
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert parse(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ).keep_alive

    def test_post_reads_content_length_body(self):
        request = parse(
            b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
            b'{"a": 1}\n'
        )
        assert request.body == b'{"a": 1}\n'
        assert request.json() == {"a": 1}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_get_with_body_drains_it_keeping_framing_in_sync(self):
        """A GET carrying Content-Length is legal; its body must be
        consumed or the next pipelined request would parse as garbage."""

        async def inner():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                b"GET /statz HTTP/1.1\r\n\r\n"
            )
            reader.feed_eof()
            first = await read_request(reader)
            second = await read_request(reader)
            return first, second

        first, second = asyncio.run(inner())
        assert first.path == "/healthz" and first.body == b"hello"
        assert second.path == "/statz"  # not a 400: framing stayed aligned

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"BROKEN\r\n\r\n", 400),  # malformed request line
            (b"GET / HTTP/9.9\r\n\r\n", 400),  # bad version
            (b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"POST /v1/sweep HTTP/1.1\r\n\r\n", 411),  # missing length
            (b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n", 400),
            # RFC 9110 lengths are digits only; int() takes all three
            (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n" + b"x" * 10, 400),
            (b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nab", 400),
            (b"GET //[ HTTP/1.1\r\n\r\n", 400),  # urlsplit: invalid IPv6 URL
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"GET / HTTP/1.1\r\nH: " + b"x" * 9000 + b"\r\n\r\n", 431),
        ],
    )
    def test_malformed_requests_map_to_statuses(self, raw, status):
        with pytest.raises(WireError) as excinfo:
            parse(raw)
        assert excinfo.value.status == status

    def test_repeated_header_names_still_hit_the_count_bound(self):
        """The bound counts received lines, not distinct names — a
        stream of same-name headers must not loop unbounded."""
        raw = b"GET / HTTP/1.1\r\n" + b"x: y\r\n" * 200 + b"\r\n"
        with pytest.raises(WireError) as excinfo:
            parse(raw)
        assert excinfo.value.status == 431

    def test_body_over_limit_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n" + b"x" * 99
        with pytest.raises(WireError) as excinfo:
            async def inner():
                reader = asyncio.StreamReader()
                reader.feed_data(raw)
                reader.feed_eof()
                return await read_request(reader, max_body=10)

            asyncio.run(inner())
        assert excinfo.value.status == 413

    def test_json_on_empty_body_is_400(self):
        request = Request(method="POST", path="/", query={}, headers={})
        with pytest.raises(WireError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestResponseWriting:
    def test_status_line_headers_and_body(self):
        async def inner():
            # Loopback via a socketpair-backed connection.
            import socket

            left, right = socket.socketpair()
            _, writer = await asyncio.open_connection(sock=left)
            await write_response(
                writer, Response(status=429, payload={"error": "full"}), False
            )
            writer.close()
            data = right.recv(65536)
            right.close()
            return data

        data = asyncio.run(inner())
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert body == b'{"error": "full"}\n'
        assert int(dict(
            line.split(b": ", 1) for line in head.split(b"\r\n")[1:]
        )[b"Content-Length"]) == len(body)
