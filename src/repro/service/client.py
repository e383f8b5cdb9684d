"""Session client: replay a recorded app trace against a live server.

The library half of ``repro-paper session``.  It speaks the streaming
session protocol (docs/service.md "Streaming sessions") over stdlib
``http.client`` — open a session, POST NDJSON event batches, read the
chunked NDJSON prediction lines back, close for the final summary —
and can *record* an application's home-directory message trace with
the same emulator the batch evaluation uses, so a replayed session is
bit-comparable to a batch ``accuracy`` sweep point over the same
workload.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from http.client import HTTPConnection
from typing import Any
from urllib.parse import urlsplit


class SessionClientError(Exception):
    """A non-2xx server answer; carries the status and decoded body."""

    def __init__(self, status: int, body: Any) -> None:
        message = body.get("error") if isinstance(body, dict) else str(body)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body


def record_app_trace(
    app: str,
    num_procs: int = 16,
    iterations: int | None = None,
    seed: int | str = 1999,
    race_seed: int | str = 7,
) -> list[dict[str, Any]]:
    """The app's home-directory message stream as NDJSON-ready events.

    Exactly the stream :func:`repro.eval.accuracy.run_predictors`
    scores: the workload's block scripts replayed through the protocol
    emulator with the same deterministic race RNG, block-major.
    Streaming these events through a session therefore reproduces the
    batch numbers bit-for-bit.
    """
    from repro.apps.registry import make_app
    from repro.common.rng import DeterministicRng
    from repro.protocol.emulator import ProtocolEmulator
    from repro.service.sessions import encode_message

    workload = make_app(
        app, num_procs=num_procs, iterations=iterations, seed=seed
    ).build()
    emulator = ProtocolEmulator(DeterministicRng(race_seed))
    return [
        encode_message(message)
        for _block, messages in emulator.run(workload.block_scripts())
        for message in messages
    ]


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a recorded NDJSON trace file (one event object per line)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
    return events


def save_trace(path: str, events: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


class SessionClient:
    """One keep-alive connection speaking the session protocol."""

    def __init__(self, url: str, timeout_s: float = 60.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self._conn = HTTPConnection(
            split.hostname or "127.0.0.1", split.port or 80, timeout=timeout_s
        )

    def close_connection(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    def _request_json(self, method: str, target: str, body: bytes | None = None) -> Any:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, target, body=body, headers=headers)
        response = self._conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        if response.status >= 400:
            raise SessionClientError(response.status, payload)
        return payload

    def open(
        self, predictor: str = "MSP", depth: int = 1, num_procs: int = 16
    ) -> dict[str, Any]:
        body = json.dumps(
            {"predictor": predictor, "depth": depth, "num_procs": num_procs}
        ).encode("utf-8")
        return self._request_json("POST", "/v1/sessions", body)

    def send_events(
        self,
        session_id: str,
        events: list[dict[str, Any]],
        on_line: Callable[[dict[str, Any]], None] | None = None,
    ) -> int:
        """POST one NDJSON batch; stream the prediction lines back.

        ``on_line`` sees each decoded prediction object as it arrives
        off the chunked response.  Returns the number of lines read.
        """
        body = b"".join(
            json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
            for event in events
        )
        self._conn.request(
            "POST",
            f"/v1/sessions/{session_id}/events",
            body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        response = self._conn.getresponse()
        if response.status >= 400:
            raise SessionClientError(
                response.status, json.loads(response.read().decode("utf-8"))
            )
        count = 0
        # http.client de-chunks transparently; readline() hands back
        # NDJSON lines as their chunks land.
        for raw in iter(response.readline, b""):
            line = raw.strip()
            if not line:
                continue
            count += 1
            if on_line is not None:
                on_line(json.loads(line))
        return count

    def status(self, session_id: str) -> dict[str, Any]:
        return self._request_json("GET", f"/v1/sessions/{session_id}")

    def close(self, session_id: str) -> dict[str, Any]:
        """DELETE the session; the batch-identical final summary."""
        return self._request_json("DELETE", f"/v1/sessions/{session_id}")


def batched(events: list[dict[str, Any]], size: int) -> Iterator[list[dict[str, Any]]]:
    if size < 1:
        raise ValueError("batch size must be >= 1")
    for start in range(0, len(events), size):
        yield events[start : start + size]


def replay_session(
    url: str,
    events: list[dict[str, Any]],
    predictor: str = "MSP",
    depth: int = 1,
    num_procs: int = 16,
    batch_size: int = 256,
    on_line: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Open → stream every batch → close; the final summary.

    The summary's ``run`` object carries the same accuracy / coverage /
    correct_fraction / average_pte / overhead_bytes a batch run over
    the identical event sequence produces.
    """
    client = SessionClient(url)
    try:
        opened = client.open(predictor=predictor, depth=depth, num_procs=num_procs)
        session_id = opened["session"]
        streamed = 0
        for batch in batched(events, batch_size):
            streamed += client.send_events(session_id, batch, on_line=on_line)
        if streamed != len(events):
            raise SessionClientError(
                500,
                {
                    "error": (
                        f"streamed {len(events)} events but received "
                        f"{streamed} prediction lines"
                    )
                },
            )
        return client.close(session_id)
    finally:
        client.close_connection()
