"""Strategies for NDJSON event batches, the session codec's input.

Random bytes almost never decode as JSON, so :func:`ndjson_bodies`
builds batches from event lines that reach every check of the schema:
valid events in varied spellings, and near misses — unknown and
non-string kinds, out-of-range, negative, boolean, float, ``1e400``
and 5,000-digit nodes and blocks, missing, extra and duplicate keys,
non-object JSON, cut-off lines, bad encodings — joined by ``\\n`` or
``\\r\\n`` with blank lines, padding and byte-order marks.

:func:`comma_cut_bodies` joins valid events with commas and cuts lines
at some of those commas, dropping them: text a comma-joined decode of
the whole batch would read as valid events where each line alone is
invalid JSON.  :func:`bracket_cut_bodies` cuts lines inside an array a
duplicate key overwrites and puts ``],[`` between events: brackets a
whole-batch decode could pair across lines.
"""

from hypothesis import strategies as st

from repro.common.types import MessageKind

_KINDS = [kind.value for kind in MessageKind]

#: Every event value as raw JSON text, so values ``json.dumps`` cannot
#: write (``1e400``, a 5,000-digit int past the int-conversion limit)
#: reach the decoder too.
_INT_TEXTS = st.one_of(
    st.integers(min_value=0, max_value=7).map(str),
    st.integers(min_value=-3, max_value=2**70).map(str),
    st.sampled_from(
        ["true", "false", "null", "1.0", "1e400", "-1e400", "NaN", "-0",
         "00", '"3"', "[1]", "{}", "9" * 5000]
    ),
)

_KIND_TEXTS = st.one_of(
    st.sampled_from(_KINDS).map('"{}"'.format),
    st.sampled_from(
        ['"sneeze"', '"READ"', '""', '"read "', '"\\u0072ead"', '["read"]',
         '{"read": 1}', "[]", "1", "null", "true", '"rea'],
    ),
)

_KEY_TEXTS = {
    "kind": st.sampled_from(['"kind"', '"\\u006bind"']),
    "node": st.just('"node"'),
    "block": st.just('"block"'),
}

_SEPARATORS = st.sampled_from([(", ", ": "), (",", ":"), (" ,  ", " : ")])


@st.composite
def valid_event_texts(draw, num_procs: int = 4) -> str:
    """One schema-valid event object, in one of several spellings."""
    fields = [
        ("kind", f'"{draw(st.sampled_from(_KINDS))}"'),
        ("node", str(draw(st.integers(min_value=0, max_value=num_procs - 1)))),
        ("block", str(draw(st.integers(min_value=0, max_value=2**40)))),
    ]
    fields = draw(st.permutations(fields))
    comma, colon = draw(_SEPARATORS)
    return "{" + comma.join(
        f"{draw(_KEY_TEXTS[key])}{colon}{value}" for key, value in fields
    ) + "}"


@st.composite
def event_texts(draw) -> str:
    """One event object that may break any one rule of the schema."""
    fields = {
        "kind": draw(_KIND_TEXTS),
        "node": draw(_INT_TEXTS),
        "block": draw(_INT_TEXTS),
    }
    items = [(f'"{key}"', value) for key, value in fields.items()]
    items = [item for item in items if draw(st.integers(0, 9))]  # drop ~1/10
    if draw(st.booleans()):
        items.append(
            (
                draw(st.sampled_from(['"kind"', '"node"', '"x"', '"Kind"'])),
                draw(st.one_of(_KIND_TEXTS, _INT_TEXTS)),
            )
        )
    items = draw(st.permutations(items))
    comma, colon = draw(_SEPARATORS)
    return "{" + comma.join(f"{key}{colon}{value}" for key, value in items) + "}"


_OTHER_LINES = st.one_of(
    st.sampled_from(
        ["[1]", '"read"', "3", "null", "{}", "[]", "{", "}", "],[", "[[", "]]",
         '{"kind": "read", "node": 0, "block": 0},'],
    ),
    st.text(alphabet='{}[],:" 0123456789abdeiknorw\\', max_size=24),
)


@st.composite
def line_bytes(draw, num_procs: int = 4) -> bytes:
    """One line's bytes: mostly events, some noise, a few odd encodings."""
    text = draw(
        st.one_of(
            valid_event_texts(num_procs),
            valid_event_texts(num_procs),
            event_texts(),
            _OTHER_LINES,
        )
    )
    if text and draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]  # cut off
    text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(
        st.sampled_from(["", " ", "\t"])
    )
    encoding = draw(st.sampled_from(["utf-8"] * 12 + ["utf-8-sig", "utf-16-le"]))
    raw = text.encode(encoding)
    if draw(st.integers(0, 29)) == 0:
        raw += b"\xff"  # not UTF-8
    return raw


@st.composite
def ndjson_bodies(draw, num_procs: int = 4) -> bytes:
    """A batch of lines, blank lines among them, with LF or CRLF ends."""
    lines = draw(
        st.lists(
            st.one_of(line_bytes(num_procs), st.sampled_from([b"", b"  ", b"\t"])),
            max_size=12,
        )
    )
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([b"", newline]))


@st.composite
def comma_cut_bodies(draw, num_procs: int = 4) -> bytes:
    """Valid events joined by commas, cut into lines at some commas."""
    events = draw(st.lists(valid_event_texts(num_procs), min_size=1, max_size=6))
    pieces = ", ".join(events).split(",")  # values hold no commas
    cuts = draw(st.lists(st.booleans(), min_size=len(pieces) - 1,
                         max_size=len(pieces) - 1))
    lines, current = [], pieces[0]
    for cut, piece in zip(cuts, pieces[1:]):
        if cut:
            lines.append(current)
            current = piece
        else:
            current += "," + piece
    lines.append(current)
    return "\n".join(lines).encode() + b"\n"


@st.composite
def bracket_cut_bodies(draw, num_procs: int = 4) -> bytes:
    """Valid events, some led by an overwritten ``"kind": [[]]``, cut
    into lines between events or inside that array, or joined on one
    line by ``],[``."""
    events = draw(st.lists(valid_event_texts(num_procs), min_size=1, max_size=6))
    lines, current = [], ""
    for index, event in enumerate(events):
        if index:
            joint = draw(st.sampled_from(["\n", "],[", ", "]))
            if joint == "\n":
                lines.append(current)
                current = ""
            else:
                current += joint
        if draw(st.booleans()):
            current += '{"kind": [['
            if draw(st.booleans()):
                lines.append(current)
                current = ""
            current += "]], " + event[1:]
        else:
            current += event
    lines.append(current)
    return "\n".join(lines).encode() + b"\n"
