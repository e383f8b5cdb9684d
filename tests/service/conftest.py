"""Shared fixtures for the service tests: an instrumented point runner.

``svc_probe`` is a runner kind that counts its invocations (so tests can
assert "zero executions on cache hit" and "exactly one under
coalescing") and can block on a named gate until the test releases it
(so tests can hold a computation in flight deterministically).  It runs
in-process — the service tests use ``jobs=1``, whose pool is
a background *thread* — so the counters are plain module state.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.harness import register_runner

CALLS: Counter = Counter()
_GATES: dict[str, threading.Event] = {}
_LOCK = threading.Lock()


def gate(name: str) -> threading.Event:
    with _LOCK:
        return _GATES.setdefault(name, threading.Event())


def _svc_probe(params):
    CALLS[params.get("name", "default")] += 1
    gate_name = params.get("gate")
    if gate_name:
        if not gate(gate_name).wait(timeout=15):
            raise RuntimeError(f"gate {gate_name!r} never opened")
    if params.get("fail"):
        raise ValueError(f"probe failure: {params.get('payload')!r}")
    return {"echo": params.get("payload"), "name": params.get("name", "default")}


try:
    register_runner("svc_probe")(_svc_probe)
except ValueError:
    pass  # already registered by a previous conftest import


@pytest.fixture(autouse=True)
def probe_state():
    """Fresh counters per test; any still-blocked worker is released."""
    CALLS.clear()
    with _LOCK:
        _GATES.clear()
    yield
    with _LOCK:
        for event in _GATES.values():
            event.set()
