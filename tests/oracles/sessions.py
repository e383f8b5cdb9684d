"""Reference session codec: one ``json.loads`` and one dict per line.

The product decodes an NDJSON event batch with one ``json.loads`` and
formats each prediction line from a fixed template
(:mod:`repro.service.sessions`).  These are the per-line decoder and
the dict-plus-``json.dumps`` line they replaced, unchanged but for
names, with the non-string ``kind`` fix applied: a list or dict kind is
a "bad event kind" error, not an unhashable-key ``TypeError``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.common.types import Message, MessageKind
from repro.predictors import DirectoryPredictor
from repro.predictors.base import Outcome, ReadVector, Token

_KIND_BY_NAME = {kind.value: kind for kind in MessageKind}


def parse_event_reference(obj: Any, num_procs: int) -> Message:
    """One NDJSON event object to a :class:`Message`; ValueError if bad."""
    if not isinstance(obj, dict):
        raise ValueError(f"event must be a JSON object, got {obj!r}")
    unknown = set(obj) - {"kind", "node", "block"}
    if unknown:
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
    return Message(kind=kind, node=node, block=block)


def parse_ndjson_events_reference(body: bytes, num_procs: int) -> list[Message]:
    """Decode an NDJSON batch line by line; ValueError names the line."""
    messages: list[Message] = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            messages.append(parse_event_reference(obj, num_procs))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return messages


def _encode_token_reference(token: Token | None) -> dict[str, Any] | None:
    if token is None:
        return None
    if isinstance(token, ReadVector):
        return {"readers": sorted(token.readers)}
    kind, node = token
    return {"kind": kind.value, "node": node}


def prediction_line_reference(
    seq: int, outcome: Outcome, predictor: DirectoryPredictor, block: int
) -> str:
    """The prediction line for event ``seq`` on ``block``, which earned
    ``outcome`` from ``predictor``, as its streamed text."""
    stats = predictor.stats
    line = {
        "seq": seq,
        "outcome": outcome.value,
        "predicted": _encode_token_reference(predictor.predicted_next(block)),
        "observed": stats.observed,
        "correct": stats.correct,
        "accuracy": stats.accuracy,
        "coverage": stats.coverage,
    }
    return json.dumps(line, sort_keys=True) + "\n"
