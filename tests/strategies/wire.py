"""Strategies for raw HTTP/1.1 request bytes.

Random bytes almost never get past the request line, so
:func:`http_requests` builds requests from parts that reach the target
parser (``urlsplit``), the header loop and the ``Content-Length``
framing: near-miss methods, targets and versions, known and unknown
header names, digit-like lengths, and latin-1 header values.
"""

from hypothesis import strategies as st

_METHODS = st.one_of(
    st.sampled_from(["GET", "POST", "PUT", "PATCH", "HEAD", "get"]),
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=6),
)

#: Characters that steer ``urlsplit``: scheme, netloc, IPv6 brackets,
#: query, fragment and percent escapes.
_TARGET_CHARS = "/?#[]:@%=&.+-_aZ09"

_TARGETS = st.one_of(
    st.sampled_from(["/", "/healthz", "/v1/point?kind=selftest&payload=1", "*"]),
    st.builds(
        "{}{}".format,
        st.sampled_from(["/", "//", "http://", "?"]),  # "//" starts a netloc
        st.text(alphabet=_TARGET_CHARS, max_size=16),
    ),
)

_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "HTTP/1.1x"])

_DIGITS = st.integers(min_value=0, max_value=64).map(str)

#: Lengths, and what ``int()`` accepts beside them: a sign, digit
#: groups joined by underscores, and near misses.
_LENGTHS = st.one_of(
    _DIGITS,
    st.builds("{}{}".format, st.sampled_from(["+", "-", "0"]), _DIGITS),
    st.integers(min_value=1000, max_value=10**6).map("{:_}".format),
    st.text(alphabet="0123456789+-_ \t¹²³", max_size=6),
)

_HEADER_VALUES = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF),
    max_size=16,
)

_HEADERS = st.one_of(
    st.tuples(st.just("Content-Length"), _LENGTHS),
    st.tuples(
        st.sampled_from(["Connection", "Host", "Authorization", "Transfer-Encoding"]),
        _HEADER_VALUES,
    ),
    st.tuples(
        st.text(alphabet="abcxyz-:", min_size=0, max_size=8), _HEADER_VALUES
    ),
)


@st.composite
def http_requests(draw) -> bytes:
    """One request: start line, headers, blank line, then a body that
    may be shorter or longer than any declared length."""
    line = f"{draw(_METHODS)} {draw(_TARGETS)} {draw(_VERSIONS)}\r\n"
    headers = "".join(
        f"{name}: {value}\r\n"
        for name, value in draw(st.lists(_HEADERS, max_size=4))
    )
    head = (line + headers + "\r\n").encode("latin-1")
    return head + draw(st.binary(max_size=48))
