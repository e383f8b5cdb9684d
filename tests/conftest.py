"""Shared fixtures, collection hooks and the test-only ``selftest`` kind."""

import os
import sys
import time
from pathlib import Path

import pytest

# Make ``tests.strategies`` importable no matter where pytest is invoked
# from (the repo root is only on sys.path when it is the cwd).
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.common.rng import DeterministicRng
from repro.harness import register_runner
from repro.protocol.epochs import BlockScript, ReadEpoch, WriteEpoch


def run_selftest_point(params):
    """Harness self-test kind, registered for the test suite only.

    ``behavior`` selects the outcome: ``"ok"`` echoes ``payload`` along
    with the worker pid, ``"error"`` raises, ``"crash"`` kills the
    worker process outright (exercising the crash-surfacing path).
    ``sleep_s`` delays the point — race tests (claim takeover, worker
    interleaving) need points that take a controllable amount of time.
    Forked sweep workers inherit the registration.
    """
    behavior = params.get("behavior", "ok")
    if behavior == "crash":
        os._exit(13)
    if behavior == "error":
        raise ValueError(f"selftest error: {params.get('payload')!r}")
    delay = params.get("sleep_s")
    if delay:
        time.sleep(float(delay))
    return {"echo": params.get("payload"), "pid": os.getpid()}


try:
    register_runner("selftest")(run_selftest_point)
except ValueError:
    pass  # already registered by a previous conftest import


def pytest_collection_modifyitems(items):
    """Integration tests regenerate paper results — mark them slow."""
    for item in items:
        if "integration" in item.path.parts:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def _isolate_trace_cache():
    """Reset the process-wide trace-cache configuration around each test.

    The CLI and the HTTP service configure the compiled-trace cache
    globally (so forked sweep workers inherit it); without this, a test
    that boots either would leave later tests silently reading a
    tmp-path cache directory.
    """
    from repro.trace import cache

    saved = cache._configured
    saved_env = os.environ.get(cache.TRACE_CACHE_ENV)
    yield
    cache._configured = saved
    if saved_env is None:
        os.environ.pop(cache.TRACE_CACHE_ENV, None)
    else:
        os.environ[cache.TRACE_CACHE_ENV] = saved_env


@pytest.fixture
def store_loads(monkeypatch):
    """``store_loads(store)`` -> the list of points that
    ``store.load_entry`` is asked for from then on, in call order."""

    def watch(store):
        loads = []
        load_entry = store.load_entry

        def counting(point):
            loads.append(point)
            return load_entry(point)

        monkeypatch.setattr(store, "load_entry", counting)
        return loads

    return watch


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(2024, "tests")


@pytest.fixture
def producer_consumer_script() -> BlockScript:
    """P3 writes, P1/P2 read — the paper's running example (10 rounds)."""
    script = BlockScript(block=0x100)
    for _ in range(10):
        script.append(WriteEpoch(writer=3))
        script.append(ReadEpoch(readers=(1, 2)))
    return script


@pytest.fixture
def migratory_script() -> BlockScript:
    """Read+write visits rotating over three processors (10 rounds)."""
    script = BlockScript(block=0x200)
    for _ in range(10):
        for visitor in (0, 1, 2):
            script.append(ReadEpoch(readers=(visitor,)))
            script.append(WriteEpoch(writer=visitor))
    return script
