"""Compiled-trace caching and the trace-pipeline entry point.

A compiled trace depends only on ``(app, num_procs, iterations, seed,
race_seed)`` — every accuracy sweep point that shares those parameters
shares the trace, whatever predictors or depths it evaluates.
:func:`compile_app_trace` is the single way the evaluation layer obtains
a trace: it consults the configured trace cache (a
:class:`~repro.harness.store.ResultStore` holding ``trace``-kind
entries, content-addressed exactly like sweep points), compiles on a
miss, and stores the columnar payload with its content hash in the
entry metadata (entry format v3).

The cache is configured process-wide — :func:`configure_trace_cache` is
called by the CLI and the HTTP service when they build a cached runner —
and is inherited by forked sweep workers; the ``REPRO_TRACE_CACHE``
environment variable seeds the configuration for spawned or external
processes.  Hit/miss counters are process-local and are harvested
around each sweep-point execution
(:func:`repro.harness.runners.execute_point_instrumented`), which is
how per-point trace-cache provenance reaches ``ResultStore`` entries,
sweep reports, and the service's ``/statz``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.common.canonical import canonical_hash
from repro.harness.spec import SweepPoint
from repro.harness.store import MISS, ResultStore
from repro.trace.compiled import CompiledTrace

#: The ResultStore kind under which compiled traces are filed.  It is a
#: storage kind only — there is deliberately no registered point runner
#: for it, so it can never be executed (or served) as a sweep point.
TRACE_KIND = "trace"

#: Environment fallback for the cache directory (workers spawned
#: without inheriting this process's configuration read it).
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Bumped when the trace payload layout changes; keys every trace entry
#: so old payloads simply miss instead of mis-decoding.  Schema 2 stores
#: each column as base64 of its raw little-endian bytes (schema 1 held
#: JSON int lists).
TRACE_SCHEMA = 2

_UNSET = object()
_configured: Any = _UNSET
_lock = threading.Lock()
_hits = 0
_misses = 0


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def configure_trace_cache(directory: str | os.PathLike | None) -> None:
    """Set (or with ``None`` disable) the process-wide trace cache.

    The directory is also exported as :data:`TRACE_CACHE_ENV` so worker
    processes that do *not* inherit this module's state (spawn start
    method, external subprocesses) see the same configuration; forked
    workers inherit the module global directly.
    """
    global _configured
    _configured = None if directory is None else str(directory)
    if _configured is None:
        os.environ.pop(TRACE_CACHE_ENV, None)
    else:
        os.environ[TRACE_CACHE_ENV] = _configured


def configured_trace_dir() -> str | None:
    """The active trace-cache directory, or None when caching is off."""
    if _configured is not _UNSET:
        return _configured
    return os.environ.get(TRACE_CACHE_ENV) or None


def trace_store() -> ResultStore | None:
    """A store over the configured directory, or None when disabled."""
    directory = configured_trace_dir()
    if directory is None:
        return None
    return ResultStore(
        directory,
        fingerprint={"trace_schema": TRACE_SCHEMA},
        compact=True,  # one line: the columns are long base64 strings
    )


# ----------------------------------------------------------------------
# hit/miss accounting
# ----------------------------------------------------------------------
def snapshot_counters() -> tuple[int, int]:
    """Process-local (hits, misses) since startup; callers diff."""
    with _lock:
        return _hits, _misses


def _note(hit: bool) -> None:
    global _hits, _misses
    with _lock:
        if hit:
            _hits += 1
        else:
            _misses += 1


# ----------------------------------------------------------------------
# the pipeline entry point
# ----------------------------------------------------------------------
def trace_point(
    app: str,
    num_procs: int,
    iterations: int,
    seed: int | str,
    race_seed: int | str,
) -> SweepPoint:
    """The cache address of one workload's compiled trace."""
    return SweepPoint.make(
        TRACE_KIND,
        {
            "app": app,
            "num_procs": num_procs,
            "iterations": iterations,
            "seed": seed,
            "race_seed": race_seed,
        },
    )


def compile_app_trace(
    app: str,
    num_procs: int = 16,
    iterations: int | None = None,
    seed: int | str = 1999,
    race_seed: int | str = 7,
) -> CompiledTrace:
    """The compiled message trace for one workload, cache-first.

    On a hit the workload is never built and the emulator never runs —
    the columnar payload decodes straight into arrays.  On a miss the
    trace is compiled and (when a cache is configured) stored with its
    content hash, so any process sharing the cache directory reuses it.
    """
    # Imported lazily: this module is reachable from the harness layer,
    # which must stay importable without dragging the app kernels in.
    from repro.apps.registry import make_app
    from repro.common.rng import DeterministicRng
    from repro.protocol.emulator import ProtocolEmulator

    instance = make_app(app, num_procs=num_procs, iterations=iterations, seed=seed)
    store = trace_store()
    point = trace_point(app, num_procs, instance.iterations, seed, race_seed)
    if store is not None:
        entry = store.load_entry(point)
        if entry is not MISS:
            try:
                trace = CompiledTrace.from_payload(entry.result)
            except (KeyError, TypeError, ValueError):
                trace = None  # unreadable payload degrades to a miss
            if trace is not None:
                _note(hit=True)
                return trace

    started = time.perf_counter()
    workload = instance.build()
    emulator = ProtocolEmulator(DeterministicRng(race_seed))
    trace = emulator.compile(workload.block_scripts(), num_nodes=num_procs)
    if store is not None:
        _note(hit=False)
        payload = trace.as_payload()
        try:
            store.store(
                point,
                payload,
                elapsed_s=time.perf_counter() - started,
                meta={
                    "content_hash": canonical_hash(payload),
                    "messages": len(trace),
                    "blocks": trace.block_count(),
                },
            )
        except OSError:
            pass  # a full/readonly cache degrades to recompiles
    return trace
