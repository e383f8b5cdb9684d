"""Online prediction sessions: stream coherence events in, predictions out.

The paper's predictors are *online* by construction — they observe a
stream of coherence messages arriving at a home directory and predict
the next sharers — so the service can hold one live predictor per
client instead of only answering precomputed sweep points.  A session
runs the per-message predictors that
:func:`repro.eval.accuracy.run_predictors` is proven equal to, kept
open between requests: the client picks a predictor kind, depth, and
node count, then feeds NDJSON events in batches; the server applies
each event through ``DirectoryPredictor.observe`` and answers with the
per-event outcome, the predicted next token, and the running accuracy.
Closing the session flushes open read runs (VMSP) and reports the same
``accuracy`` / ``coverage`` / ``correct_fraction`` / ``average_pte`` /
``overhead_bytes`` numbers a batch run over the concatenated event
sequence would produce — bit-identical, which the golden tests enforce.

The :class:`SessionTable` is the "millions of users" shape: many small
stateful sessions with TTL + LRU idle reaping, a per-session event
bound (predictor state grows with the trace, so unbounded sessions are
unbounded memory), and admission backpressure once the table is full.
Everything is event-loop-confined: feeds are applied synchronously, so
two batches can never interleave mid-event and eviction can never
observe a half-applied batch.
"""

from __future__ import annotations

import itertools
import json
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.common.types import BlockId, Message, MessageKind, NodeId
from repro.predictors import PREDICTOR_CLASSES, DirectoryPredictor
from repro.predictors.base import ReadVector, Token

#: Admission defaults; ``repro-paper serve`` exposes all three.
DEFAULT_MAX_SESSIONS = 64
DEFAULT_SESSION_TTL_S = 300.0
DEFAULT_MAX_EVENTS = 100_000

_KIND_BY_NAME = {kind.value: kind for kind in MessageKind}
_EVENT_FIELDS = {"kind", "node", "block"}


class SessionError(Exception):
    """Base for session failures; carries the HTTP status to answer."""

    status = 400

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after_s = retry_after_s


class SessionTableFull(SessionError):
    """No admission slot free; the client should back off and retry."""

    status = 429


class SessionBoundExceeded(SessionError):
    """The batch would push the session past its event bound."""

    status = 413


class UnknownSession(SessionError):
    """The id names no live session (never opened, expired, or closed)."""

    status = 404


# ----------------------------------------------------------------------
# event codec (the NDJSON schema)
# ----------------------------------------------------------------------
def parse_event(obj: Any, num_procs: int) -> Message:
    """One NDJSON event object to a :class:`Message`; ValueError if bad.

    Schema: ``{"kind": "read|write|upgrade|ack|writeback", "node": N,
    "block": B}`` — exactly the coherence-message vocabulary the
    predictors observe at a home directory.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"event must be a JSON object, got {obj!r}")
    if not obj.keys() <= _EVENT_FIELDS:
        unknown = obj.keys() - _EVENT_FIELDS
        raise ValueError(f"unknown event field(s): {', '.join(sorted(unknown))}")
    kind = obj.get("kind")
    kind = _KIND_BY_NAME.get(kind) if isinstance(kind, str) else None
    if kind is None:
        raise ValueError(
            f"bad event kind {obj.get('kind')!r} "
            f"(known: {', '.join(sorted(_KIND_BY_NAME))})"
        )
    node = obj.get("node")
    if not isinstance(node, int) or isinstance(node, bool) or node < 0:
        raise ValueError(f"event node must be a non-negative integer, got {node!r}")
    if node >= num_procs:
        raise ValueError(
            f"event node {node} out of range for a {num_procs}-node session"
        )
    block = obj.get("block")
    if not isinstance(block, int) or isinstance(block, bool) or block < 0:
        raise ValueError(
            f"event block must be a non-negative integer, got {block!r}"
        )
    return Message(kind, node, block)


def parse_ndjson_events(body: bytes, num_procs: int) -> list[Message]:
    """Decode an NDJSON batch; ValueError names the offending line.

    The batch is decoded with one ``json.loads`` over its lines, each
    wrapped in its own one-element array, and accepted only if every
    line decoded to exactly one valid event.  Anything else — a syntax
    error, a bad encoding, a count mismatch, a failed check — reruns
    the line-by-line decode, which raises the line-numbered error (or
    accepts what a line alone decodes to, such as a line with a UTF-8
    byte-order mark).

    The wrapping keeps line boundaries structural: a plain comma join
    would accept an object split across two lines at a dropped comma.
    A body holding any bracket goes straight to the line loop, so every
    bracket in the joined text is one inserted here; no line can then
    donate an element to its neighbour, even by hiding brackets in a
    value a duplicate key overwrites.
    """
    if b"[" not in body and b"]" not in body:
        messages = _decode_batch(body, num_procs)
        if messages is not None:
            return messages
    messages = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad syntax and an int past
            # the interpreter's digit limit; RecursionError, deep nesting.
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            messages.append(parse_event(obj, num_procs))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return messages


def _decode_batch(body: bytes, num_procs: int) -> list[Message] | None:
    """The batch's messages from one ``json.loads``, or None unless
    every non-blank line decoded to one row holding one valid event."""
    lines = [line for line in map(bytes.strip, body.splitlines()) if line]
    try:
        rows = json.loads(b"[[" + b"],[".join(lines) + b"]]")
    except (ValueError, RecursionError):
        # Wrapped, a line sits two arrays deeper than alone, so a line
        # nested just under the recursion limit may fail here only.
        return None
    try:
        messages = [parse_event(event, num_procs) for (event,) in rows]
    except ValueError:
        # a bad event, or a row of more than one value (a line holding
        # two events)
        return None
    return messages if len(messages) == len(lines) else None


def encode_token(token: Token | None) -> str:
    """A predictor token's JSON text: request pair or VMSP reader vector."""
    if token is None:
        return "null"
    if isinstance(token, ReadVector):
        return '{"readers": [%s]}' % ", ".join(map(str, sorted(token.readers)))
    kind, node = token
    return '{"kind": "%s", "node": %d}' % (kind.value, node)


def encode_message(message: Message) -> dict[str, Any]:
    return {"kind": message.kind.value, "node": message.node, "block": message.block}


#: One prediction line: the keys in sorted order with ``json.dumps``'s
#: separators, so a line equals ``json.dumps(line, sort_keys=True)``.
#: ``%r`` is json's float text for the always-finite ratios.
_PREDICTION_LINE = (
    '{"accuracy": %r, "correct": %d, "coverage": %r, "observed": %d, '
    '"outcome": "%s", "predicted": %s, "seq": %d}\n'
)


# ----------------------------------------------------------------------
# one session
# ----------------------------------------------------------------------
class PredictorSession:
    """One client's live predictor plus its accounting."""

    def __init__(
        self,
        session_id: str,
        predictor_name: str,
        depth: int,
        num_procs: int,
        now_monotonic: float,
    ) -> None:
        cls = PREDICTOR_CLASSES.get(predictor_name)
        if cls is None:
            raise ValueError(
                f"unknown predictor {predictor_name!r} "
                f"(known: {', '.join(sorted(PREDICTOR_CLASSES))})"
            )
        if not isinstance(num_procs, int) or isinstance(num_procs, bool) or (
            num_procs < 1
        ):
            raise ValueError(f"num_procs must be a positive integer, got {num_procs!r}")
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise ValueError(f"history depth must be a positive integer, got {depth!r}")
        self.id = session_id
        self.predictor_name = predictor_name
        self.depth = depth
        self.num_procs = num_procs
        self.predictor: DirectoryPredictor = cls(depth=depth)
        self.events = 0
        self.created_at = time.time()  # wall clock: reported as a timestamp
        self.created_monotonic = now_monotonic
        self.last_active = now_monotonic

    def feed(self, message: Message) -> str:
        """Apply one event; the NDJSON prediction line it earns, with
        its newline.

        ``outcome`` scores this event against what the predictor
        expected; ``predicted`` is the token now predicted to arrive
        *next* for the event's block; the stats are running totals
        identical to the batch path's accounting.
        """
        self.events += 1
        predictor = self.predictor
        outcome = predictor.observe(message)
        stats = predictor.stats
        return _PREDICTION_LINE % (
            stats.accuracy,
            stats.correct,
            stats.coverage,
            stats.observed,
            outcome.value,
            encode_token(predictor.predicted_next(message.block)),
            self.events,
        )

    def status(self, now_monotonic: float) -> dict[str, Any]:
        stats = self.predictor.stats
        return {
            "session": self.id,
            "predictor": self.predictor_name,
            "depth": self.depth,
            "num_procs": self.num_procs,
            "events": self.events,
            "created_at": self.created_at,
            "age_s": round(now_monotonic - self.created_monotonic, 3),
            "idle_s": round(now_monotonic - self.last_active, 3),
            "stats": {
                "observed": stats.observed,
                "predicted": stats.predicted,
                "correct": stats.correct,
                "ignored": stats.ignored,
            },
            "accuracy": stats.accuracy,
            "coverage": stats.coverage,
            "correct_fraction": stats.correct_fraction,
        }

    def finalize(self, now_monotonic: float) -> dict[str, Any]:
        """End-of-stream summary, mirroring the batch evaluation exactly.

        Flushes still-open read runs (VMSP commits them to the tables,
        as the vectorized scorer does at end of trace) and computes the
        Table 3/4 numbers from the same formulas
        :func:`repro.eval.accuracy.run_predictors` uses — the ``run``
        object is byte-comparable to a batch ``accuracy`` sweep point's
        per-predictor entry.
        """
        flush = getattr(self.predictor, "flush", None)
        if flush is not None:
            flush()
        stats = self.predictor.stats
        average_pte = self.predictor.average_pattern_entries()
        profile = self.predictor.storage_profile(self.num_procs, self.depth)
        summary = self.status(now_monotonic)
        summary["run"] = {
            "accuracy": stats.accuracy,
            "coverage": stats.coverage,
            "correct_fraction": stats.correct_fraction,
            "average_pte": average_pte,
            "overhead_bytes": profile.bytes_per_block(average_pte),
        }
        return summary


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
class SessionTable:
    """Live sessions with TTL + LRU reaping, bounds, and backpressure.

    The dict doubles as the LRU order (oldest-touched first): every
    touch re-inserts the session at the end, and reaping walks the
    front.  A session is only ever evicted once it has sat idle past
    the TTL — an active session can never be reaped out from under its
    client, which the lifecycle property tests assert.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        ttl_s: float = DEFAULT_SESSION_TTL_S,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl_s <= 0:
            raise ValueError("session ttl must be > 0 seconds")
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_sessions = max_sessions
        self.ttl_s = ttl_s
        self.max_events = max_events
        self._clock = clock
        self._sessions: dict[str, PredictorSession] = {}
        self._counter = itertools.count(1)
        # Lifecycle counters: every opened session ends up active,
        # closed, or evicted — /statz readers (and the property tests)
        # check that they always balance.
        self.opened = 0
        self.closed = 0
        self.evicted = 0
        self.events_observed = 0
        self.rejected_full = 0
        self.rejected_bound = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def active(self) -> int:
        return len(self._sessions)

    def reap(self) -> list[PredictorSession]:
        """Evict sessions idle past the TTL; the evicted, oldest first."""
        now = self._clock()
        reaped: list[PredictorSession] = []
        # LRU order: once we meet a session inside its TTL, all later
        # ones are fresher still.
        for session_id, session in list(self._sessions.items()):
            if now - session.last_active <= self.ttl_s:
                break
            del self._sessions[session_id]
            self.evicted += 1
            reaped.append(session)
        return reaped

    def open(
        self, predictor: str, depth: int = 1, num_procs: int = 16
    ) -> PredictorSession:
        """Admit a new session, or :class:`SessionTableFull` (429).

        The retry hint is derived from the table itself: how long until
        the least-recently-used session ages out and frees a slot.
        """
        self.reap()
        if len(self._sessions) >= self.max_sessions:
            self.rejected_full += 1
            raise SessionTableFull(
                f"session table is full ({self.max_sessions} live sessions)",
                retry_after_s=self._slot_free_in(),
            )
        session = PredictorSession(
            session_id=f"sess-{next(self._counter):05d}",
            predictor_name=predictor,
            depth=depth,
            num_procs=num_procs,
            now_monotonic=self._clock(),
        )
        self._sessions[session.id] = session
        self.opened += 1
        return session

    def _slot_free_in(self) -> float:
        """Seconds until the LRU session expires (>= 1s floor)."""
        oldest = next(iter(self._sessions.values()))
        remaining = self.ttl_s - (self._clock() - oldest.last_active)
        return max(1.0, remaining)

    def get(self, session_id: str) -> PredictorSession:
        """The live session, touched (LRU + idle clock), or 404."""
        self.reap()
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(
                f"no such session: {session_id!r} (unknown, expired, or closed)"
            )
        del self._sessions[session_id]
        self._sessions[session_id] = session  # move to LRU tail
        session.last_active = self._clock()
        return session

    def peek(self, session_id: str) -> PredictorSession:
        """The live session *without* touching its idle clock."""
        self.reap()
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(
                f"no such session: {session_id!r} (unknown, expired, or closed)"
            )
        return session

    def feed(self, session_id: str, messages: Iterable[Message]) -> list[str]:
        """Apply one event batch atomically; one prediction line each.

        The whole batch is bounds-checked up front (413 before any
        event is applied, so a rejected batch leaves the session
        untouched) and applied without yielding, so concurrent feeds
        and eviction can never interleave mid-batch.
        """
        session = self.get(session_id)
        batch = list(messages)
        if session.events + len(batch) > self.max_events:
            self.rejected_bound += 1
            raise SessionBoundExceeded(
                f"batch of {len(batch)} events would exceed the per-session "
                f"bound ({self.max_events}); close the session or open a new one"
            )
        lines = [session.feed(message) for message in batch]
        self.events_observed += len(batch)
        return lines

    def close(self, session_id: str) -> dict[str, Any]:
        """Finalize and remove; the batch-identical end-of-stream summary."""
        session = self.get(session_id)
        del self._sessions[session_id]
        self.closed += 1
        return session.finalize(self._clock())

    def sessions(self) -> list[PredictorSession]:
        return list(self._sessions.values())

    def stats(self) -> dict[str, Any]:
        """The ``sessions`` section of ``/statz``."""
        self.reap()
        return {
            "max_sessions": self.max_sessions,
            "ttl_s": self.ttl_s,
            "max_events": self.max_events,
            "active": len(self._sessions),
            "opened": self.opened,
            "closed": self.closed,
            "evicted": self.evicted,
            "events_observed": self.events_observed,
            "rejected_full": self.rejected_full,
            "rejected_bound": self.rejected_bound,
        }
