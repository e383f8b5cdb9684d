"""Property test: the HTTP/1.1 parser answers any bytes a client sends.

``read_request`` faces the network directly, so whatever arrives it
must return ``None`` (clean end of stream) or a :class:`Request`, or
raise :class:`WireError` with a 4xx/5xx status for the server to send
back.  Any other exception escapes the connection handler and drops the
socket without a response.  A request it does accept keeps the framing
RFC 9110 describes: a declared ``Content-Length`` is digits only and
equals the body read.
"""

import asyncio

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from repro.service.wire import Request, WireError, read_request
from tests.strategies import STANDARD_SETTINGS, http_requests

pytestmark = pytest.mark.property

#: Generous bound on parsing one fed-and-closed stream (microseconds in
#: practice); exceeding it means the parser waits on bytes that never come.
PARSE_TIMEOUT_S = 5.0


def parse(raw: bytes):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await asyncio.wait_for(read_request(reader), PARSE_TIMEOUT_S)

    return asyncio.run(inner())


@STANDARD_SETTINGS
@given(raw=st.one_of(http_requests(), st.binary(max_size=256)))
@example(raw=b"GET //[ HTTP/1.1\r\n\r\n")
@example(raw=b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
def test_read_request_answers_any_bytes(raw):
    try:
        request = parse(raw)
    except WireError as exc:
        assert 400 <= exc.status < 600
        return
    assert request is None or isinstance(request, Request)
    declared = request.headers.get("content-length") if request else None
    if declared is not None:
        assert declared.isascii() and declared.isdigit()
        assert len(request.body) == int(declared)
