"""The session codec against its per-line oracle (tests/oracles/sessions.py).

Two properties pin the streaming API's bytes:

(a) **Decoder.** On generated NDJSON batches, valid and invalid,
    :func:`parse_ndjson_events` returns the same messages as the
    line-by-line reference decoder, or raises the same error with the
    same text.  Comma-cut and bracket-cut batches, nesting near the
    recursion limit and the examples below are the inputs a
    whole-batch decode could read differently from its lines.
(b) **Lines.** Every prediction line :meth:`PredictorSession.feed`
    returns is byte-equal to the dict-plus-``json.dumps`` reference
    line, for each predictor at history depths 1, 2 and 4.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.types import Message, MessageKind
from repro.predictors import PREDICTOR_CLASSES
from repro.service.sessions import PredictorSession, parse_ndjson_events
from tests.oracles import parse_ndjson_events_reference, prediction_line_reference
from tests.strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS
from tests.strategies.sessions import (
    bracket_cut_bodies,
    comma_cut_bodies,
    ndjson_bodies,
)

pytestmark = pytest.mark.property

NUM_PROCS = 4

#: Line 2 completes line 1's second object only if a comma is read
#: between them: a comma-joined batch decode accepts it, line 1 alone
#: is invalid JSON.
SPLIT_AT_A_DROPPED_COMMA = (
    b'{"kind": "write", "node": 0, "block": 3}, {"kind": "read", "node": 1\n'
    b'"block": 3}\n'
)

#: A duplicate key's overwritten value holds line 1's brackets open
#: across line 2, and line 3 holds two events: the wrapped decode
#: counts three one-event rows, while lines 1 and 3 alone are invalid.
BRACKETS_IN_AN_OVERWRITTEN_VALUE = (
    b'{"kind": [[\n'
    b']], "kind": "read", "node": 0, "block": 0}\n'
    b'{"kind": "read", "node": 0, "block": 0}],[{"kind": "read", "node": 0, '
    b'"block": 1}\n'
)


def decoded(parse, body, num_procs):
    """What ``parse`` makes of ``body``: its messages, or its error."""
    try:
        return parse(body, num_procs)
    except Exception as exc:  # noqa: BLE001 — the error is the result
        return type(exc), str(exc)


def assert_decodes_like_reference(body, num_procs):
    assert decoded(parse_ndjson_events, body, num_procs) == decoded(
        parse_ndjson_events_reference, body, num_procs
    )


# ----------------------------------------------------------------------
# (a) the decoder
# ----------------------------------------------------------------------
@given(body=ndjson_bodies(NUM_PROCS), num_procs=st.integers(1, NUM_PROCS))
@example(body=b'{"kind": "read", "node": 1, "block": 2}\r\n\r\n', num_procs=4)
@example(body=b'\xef\xbb\xbf{"kind": "read", "node": 1, "block": 2}\n', num_procs=4)
@example(body=b'{"kind": "read", "node": 1, "block": 1e400}\n', num_procs=4)
@example(body=b'{"kind": "read", "node": 1, "block": ' + b"7" * 5000 + b"}",
         num_procs=4)
@example(body=b'{"kind": "read", "kind": ["read"], "node": 1, "block": 2}',
         num_procs=4)
@DETERMINISM_SETTINGS
def test_batches_decode_like_the_line_loop(body, num_procs):
    assert_decodes_like_reference(body, num_procs)


@given(body=comma_cut_bodies(NUM_PROCS))
@example(body=SPLIT_AT_A_DROPPED_COMMA)
@DETERMINISM_SETTINGS
def test_comma_cut_batches_decode_like_the_line_loop(body):
    assert_decodes_like_reference(body, NUM_PROCS)


@given(body=bracket_cut_bodies(NUM_PROCS))
@example(body=BRACKETS_IN_AN_OVERWRITTEN_VALUE)
@DETERMINISM_SETTINGS
def test_bracket_cut_batches_decode_like_the_line_loop(body):
    assert_decodes_like_reference(body, NUM_PROCS)


def nested_event(depth):
    """A valid event whose overwritten duplicate ``kind`` is ``depth``
    objects deep."""
    return (
        b'{"kind": ' + b'{"a": ' * depth + b"1" + b"}" * depth
        + b', "kind": "read", "node": 0, "block": 0}\n'
    )


def test_nesting_near_the_recursion_limit_decodes_like_the_line_loop():
    """Wrapped, each line sits two arrays deeper than the line loop
    parses it, so near the interpreter's recursion limit the one
    decode can fail where the line alone decodes; it must fall back."""

    def accepted(depth):
        body = nested_event(depth)
        return type(decoded(parse_ndjson_events_reference, body, NUM_PROCS)) is list

    low, high = 1, 2
    while accepted(high):
        low, high = high, 2 * high
    while high - low > 1:  # accepted(low) and not accepted(high)
        middle = (low + high) // 2
        low, high = (middle, high) if accepted(middle) else (low, middle)
    for depth in range(low - 8, high + 3):
        assert_decodes_like_reference(nested_event(depth), NUM_PROCS)


def test_valid_batches_take_the_one_decode(monkeypatch):
    """A batch of valid events never reaches the line loop: it is
    decoded by exactly one ``json.loads``."""
    body = b"".join(
        json.dumps({"kind": kind.value, "node": n, "block": 7 * n}).encode() + b"\n"
        for n, kind in enumerate(MessageKind)
    )
    calls = []
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    messages = parse_ndjson_events(body, num_procs=len(MessageKind))
    monkeypatch.undo()
    assert len(calls) == 1
    assert messages == parse_ndjson_events_reference(body, len(MessageKind))


# ----------------------------------------------------------------------
# (b) the prediction lines
# ----------------------------------------------------------------------
MESSAGES = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    node=st.integers(min_value=0, max_value=NUM_PROCS - 1),
    block=st.integers(min_value=0, max_value=3),
)

#: Random streams, and short patterns repeated so that predictors learn
#: them and predict request pairs and reader vectors.
STREAMS = st.one_of(
    st.lists(MESSAGES, max_size=60),
    st.tuples(st.lists(MESSAGES, min_size=1, max_size=8), st.integers(1, 8)).map(
        lambda pattern_repeats: pattern_repeats[0] * pattern_repeats[1]
    ),
)


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("predictor", sorted(PREDICTOR_CLASSES))
@given(messages=STREAMS)
@STANDARD_SETTINGS
def test_feed_lines_equal_reference_bytes(predictor, depth, messages):
    session = PredictorSession("sess-1", predictor, depth, NUM_PROCS, 0.0)
    reference = PREDICTOR_CLASSES[predictor](depth=depth)
    for seq, message in enumerate(messages, start=1):
        line = session.feed(message)
        outcome = reference.observe(message)
        assert line == prediction_line_reference(
            seq, outcome, reference, message.block
        )
