"""Minimal HTTP/1.1 framing over asyncio streams.

Hand-rolled on purpose: the service needs exactly one verb pair
(GET/POST), JSON bodies, keep-alive, and strict input bounds — a few
hundred lines of explicit parsing we fully control, instead of dragging
in a framework the offline environment doesn't have.  Everything here
is transport only; routing and semantics live in
:mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections.abc import AsyncIterator
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard bounds on what a client may send; exceeding them is a wire error.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 64
MAX_HEADER_LINE = 8192
MAX_BODY_BYTES = 1 << 20

REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class WireError(Exception):
    """A malformed or over-limit request; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: False when the client asked for (or implied) connection close.
    keep_alive: bool = True

    def json(self) -> Any:
        """The body decoded as JSON, or :class:`WireError` 400."""
        if not self.body:
            raise WireError(400, "expected a JSON request body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(400, f"invalid JSON body: {exc}") from None


@dataclass(slots=True)
class Response:
    """One response to be written back.

    Three framings share this type:

    * ``payload`` (the default) — a JSON body written with an explicit
      ``Content-Length``;
    * ``body`` — pre-encoded raw bytes written as-is (set a
      ``Content-Type`` header; ``/metrics`` uses this for the
      Prometheus text exposition format);
    * ``stream`` — an async iterator of byte chunks written with
      ``Transfer-Encoding: chunked``, one HTTP chunk per yielded value,
      drained as they are produced.  Streaming responses default to
      NDJSON content (one JSON object per line) unless ``headers``
      overrides ``Content-Type``.
    """

    status: int = 200
    payload: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    stream: AsyncIterator[bytes] | None = None
    body: bytes | None = None

    def encode_body(self) -> bytes:
        if self.body is not None:
            return self.body
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode("utf-8")


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    """One CRLF(-ish) terminated line, bounded; '' only at clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        raise WireError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise WireError(431, "header line too long") from None
    if len(line) > limit:
        raise WireError(431, "header line too long")
    return line.rstrip(b"\r\n")


async def read_start_line(reader: asyncio.StreamReader) -> bytes:
    """The raw request line, or b'' at clean end-of-stream.

    Split out of :func:`read_request` so a server can put an *idle*
    timeout on waiting for the next request and a separate, more
    generous timeout on receiving the rest of it (slow uploads are not
    idle connections).
    """
    return await _read_line(reader, MAX_REQUEST_LINE)


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
    start_line: bytes | None = None,
) -> Request | None:
    """Parse one request off the stream; None at clean end-of-stream."""
    raw_line = (
        start_line if start_line is not None else await read_start_line(reader)
    )
    if not raw_line:
        return None
    try:
        line = raw_line.decode("ascii")
    except UnicodeDecodeError:
        raise WireError(400, "request line is not ASCII") from None
    parts = line.split()
    if len(parts) != 3:
        raise WireError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise WireError(400, f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    header_lines = 0
    while True:
        header_line = await _read_line(reader, MAX_HEADER_LINE)
        if not header_line:
            break
        # Count received lines, not dict entries: repeated names collapse
        # in the dict and would make this loop unbounded otherwise.
        header_lines += 1
        if header_lines > MAX_HEADER_COUNT:
            raise WireError(431, "too many request headers")
        name, sep, value = header_line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise WireError(400, f"malformed header line: {header_line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise WireError(501, "chunked request bodies are not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is None and method in ("POST", "PUT", "PATCH"):
        raise WireError(411, "POST requires a Content-Length header")
    if length_text is not None:
        # Consume a declared body on ANY method (a GET may legally carry
        # one); leaving it unread would desynchronize keep-alive framing.
        # RFC 9110 section 8.6 allows digits only: int() alone takes "+3"
        # and "1_0", and isdigit() alone takes "²" from the latin-1 decode.
        try:
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(length_text)
            length = int(length_text)  # refuses over-long digit strings too
        except ValueError:
            raise WireError(400, f"bad Content-Length: {length_text!r}") from None
        if length > max_body:
            raise WireError(413, f"request body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise WireError(400, "connection closed mid-body") from None

    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed "[" IPv6 host: "//["
        raise WireError(400, f"malformed request target: {target!r}") from None
    query = {
        name: value for name, value in parse_qsl(split.query, keep_blank_values=True)
    }
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and (
        version == "HTTP/1.1" or connection == "keep-alive"
    )
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


async def write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    """Serialize one response and drain.

    Payload responses are JSON with an explicit ``Content-Length``;
    stream responses are written chunk-by-chunk with
    ``Transfer-Encoding: chunked`` (each yielded chunk is flushed
    before the next is pulled, so a slow consumer sees results as they
    are produced, and the terminating zero-chunk keeps keep-alive
    framing intact).
    """
    reason = REASONS.get(response.status, "Unknown")
    if response.stream is not None:
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            "Content-Type: application/x-ndjson; charset=utf-8",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(
            f"{name}: {value}" for name, value in response.headers.items()
        )
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
        await writer.drain()
        async for chunk in response.stream:
            if not chunk:
                continue  # a zero-length chunk would terminate the body
            writer.write(f"{len(chunk):x}\r\n".encode("ascii") + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return
    body = response.encode_body()
    content_type = "application/json; charset=utf-8"
    extra = []
    for name, value in response.headers.items():
        # A handler-supplied Content-Type (e.g. /metrics' text format)
        # replaces the JSON default instead of duplicating the header.
        if name.lower() == "content-type":
            content_type = value
        else:
            extra.append(f"{name}: {value}")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(extra)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
    await writer.drain()


def error_response(status: int, message: str, **extra: Any) -> Response:
    """A JSON error body, plus the standard headers clients rely on.

    A ``retry_after_s`` hint is mirrored into a real ``Retry-After``
    header (rounded up to whole seconds, the delta-seconds form of RFC
    9110 §10.2.3) — standard HTTP clients, proxies, and load balancers
    only honor the header, never a JSON field.
    """
    payload = {"error": message}
    payload.update(extra)
    response = Response(status=status, payload=payload)
    retry_after = extra.get("retry_after_s")
    if retry_after is not None:
        response.headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
    return response
