"""The ``session-stream`` workload.

Two keep-alive connections run session after session against one
``repro-paper serve`` process.  Each session streams a seeded recorded
app trace (``repro.service.client.record_app_trace``) through
``/v1/sessions`` in pre-encoded NDJSON batches of :data:`BATCH` events;
sessions rotate over the traces, Cosmos/MSP/VMSP and depths 1 and 4.
There is one trace per app; every seed streams the same number of
rounds over all (app, predictor, depth) combinations, sized to last
about ``--seconds``, so the events streamed repeat exactly per seed.

Set-up is trace recording, the batch reference results and server
start; it is repeated three times and the median reported.

Checks: every batch answers one prediction line per event; every
closing ``run`` equals ``run_predictors`` over the same events; the
prediction stream of each (trace, predictor, depth) hashes the same
every time it is replayed.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from benchlib import TAIL, Server, body_request, client_gc_paused, median, percentile

SETUPS = 3
CONNECTIONS = 2
BATCH = 256
DEPTHS = (1, 4)
NUM_PROCS = 16
ITERATIONS = 2
#: Sessions completed per second over both connections on a 2-core x86
#: host; a run streams whole rounds over every (app, predictor, depth)
#: lasting about ``seconds``.
SESSIONS_PER_S = 12.0


def batch_tail(events: list[dict]) -> bytes:
    """An event-batch request after its request target: version,
    headers and the NDJSON body, encoded once."""
    body = b"".join(json.dumps(e, sort_keys=True).encode() + b"\n" for e in events)
    head = (
        "HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def record(seed: int) -> list[dict]:
    """The seeded traces, each with its batch references."""
    from repro.apps.registry import APP_NAMES
    from repro.eval.accuracy import run_predictors
    from repro.eval.experiments import PREDICTORS
    from repro.service.client import record_app_trace

    traces = []
    for index, app in enumerate(APP_NAMES):
        params = {"app": app, "num_procs": NUM_PROCS, "iterations": ITERATIONS,
                  "seed": seed * 100_003 + index + 1,
                  "race_seed": seed * 100_003 + index + 1}
        events = record_app_trace(**params)
        references = {}
        for depth in DEPTHS:
            runs = run_predictors(
                app, depth=depth, predictors=PREDICTORS, num_procs=NUM_PROCS,
                iterations=params["iterations"], seed=params["seed"],
                race_seed=params["race_seed"],
            )
            for name, run in runs.items():
                references[name, depth] = {
                    "accuracy": run.accuracy,
                    "coverage": run.coverage,
                    "correct_fraction": run.correct_fraction,
                    "average_pte": run.average_pte,
                    "overhead_bytes": run.overhead_bytes,
                }
        batches = [
            (batch_tail(events[start : start + BATCH]), min(BATCH, len(events) - start))
            for start in range(0, len(events), BATCH)
        ]
        traces.append({"events": len(events), "batches": batches,
                       "references": references})
    return traces


def set_up(traced: bool, seed: int) -> tuple[Server, float, list[dict]]:
    started = time.monotonic()
    traces = record(seed)
    server = Server(traced, "session-stream")
    return server, time.monotonic() - started, traces


def session_loop(conn, plans, traces, seen, gate) -> tuple[list, int, list]:
    """Run each planned session; ``(batch samples, failures, problems)``
    with samples ``(start, latency_ms, events)``.  ``seen`` maps each
    (trace, predictor, depth) to the hash of its first prediction
    stream; ``gate`` is waited on before the second half of the plans."""
    samples, failures, problems = [], 0, []
    for number, (trace_index, predictor, depth) in enumerate(plans):
        if number == len(plans) // 2 and gate is not None:
            gate.wait()
        trace = traces[trace_index]
        opener = json.dumps({"predictor": predictor, "depth": depth,
                             "num_procs": NUM_PROCS}).encode()
        status, body = conn.exchange(
            body_request("POST", "/v1/sessions", opener, "application/json")
        )
        if status != 201:
            failures += 1
            problems.append(f"session open answered {status}")
            continue
        session = json.loads(body)["session"]
        head = f"POST /v1/sessions/{session}/events ".encode("ascii")
        stream_hash = hashlib.sha256()
        for rest, size in trace["batches"]:
            started = time.monotonic()
            status, answer = conn.exchange(head + rest)
            samples.append((started, 1000.0 * (time.monotonic() - started), size))
            stream_hash.update(answer)
            if status != 200 or answer.count(b"\n") != size:
                failures += 1
        status, body = conn.exchange(
            f"DELETE /v1/sessions/{session} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        )
        summary = json.loads(body) if status == 200 else {}
        key = (trace_index, predictor, depth)
        digest = seen.setdefault(key, stream_hash.hexdigest())
        if (
            summary.get("run") != trace["references"][predictor, depth]
            or summary.get("events") != trace["events"]
            or digest != stream_hash.hexdigest()
        ):
            failures += 1
            problems.append(f"session {key} disagrees with the batch result")
    return samples, failures, problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.eval.experiments import PREDICTORS

    setups = []
    for attempt in range(SETUPS):
        server, setup_s, traces = set_up(trace, seed)
        setups.append(setup_s)
        if attempt < SETUPS - 1:
            server.stop()
            server.close()

    configs = [(t, p, d) for t in range(len(traces)) for p in PREDICTORS for d in DEPTHS]
    random.Random(f"session-stream/{seed}").shuffle(configs)
    rounds = max(1, round(seconds * SESSIONS_PER_S / len(configs)))
    total = rounds * len(configs)
    plans = [
        [configs[n % len(configs)] for n in range(c, total, CONNECTIONS)]
        for c in range(CONNECTIONS)
    ]
    try:
        baseline: dict = {}

        def turn_on_tracing() -> None:
            baseline["cpu"] = time.process_time()
            baseline["at"] = time.monotonic()
            server.start_tracing()

        gate = threading.Barrier(CONNECTIONS, action=turn_on_tracing) if trace else None
        conns = [server.connect() for _ in range(CONNECTIONS)]
        seen: dict[tuple, str] = {}
        with client_gc_paused(), ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
            cpu0, started = time.process_time(), time.monotonic()
            futures = [
                pool.submit(session_loop, conns[c], plans[c], traces, seen, gate)
                for c in range(CONNECTIONS)
            ]
            results = [f.result() for f in futures]
        ended, cpu1 = time.monotonic(), time.process_time()
        for conn in conns:
            conn.close()
        rss_mb = server.peak_rss_mb()
        spans = server.stop()
    finally:
        server.close()

    batches = [s for samples, _f, _p in results for s in samples]
    failures = sum(f for _s, f, _p in results)
    problems = [p for _s, _f, found in results for p in found]
    sessions = sum(len(p) for p in plans)
    attempted = len(batches) + 2 * sessions
    events = sum(s[2] for s in batches)
    window = ended - started
    out = {"attempted": attempted, "failed": failures, "problems": problems,
           "named": [], "layers": None}
    if trace:
        from spans import summarize

        on = baseline["at"]
        before = [s[1] for s in batches if s[0] < on]
        after = [s[1] for s in batches if s[0] >= on]
        layers = summarize(spans["spans"], (on, ended))
        layers["client.cpu_s"] = cpu1 - baseline["cpu"]
        layers["tracing.overhead_pct"] = (
            100.0 * (median(after) - median(before)) / median(before)
        )
        out["layers"] = layers
        return out

    batch_ms = [s[1] for s in batches]
    p50, batch_tail, rate = median(batch_ms), percentile(batch_ms, TAIL), events / window
    out["metrics"] = {
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
        "latency_p90_ms": batch_tail,
        "throughput_per_s": rate,
    }
    note = f"{len(batch_ms)} batches of <= {BATCH} events"
    out["named"] = [
        ("events_per_s", rate, "1/s", f"{events} events, {sessions} sessions"),
        ("batch_p50_ms", p50, "ms", note),
        (f"batch_p{TAIL:g}_ms", batch_tail, "ms", note),
        ("setup_s", median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", rss_mb, "MB", "server process"),
        ("error_rate", failures / attempted, "ratio", f"{failures}/{attempted}"),
        ("client.cpu_s", cpu1 - cpu0, "s", "load generator CPU in the window"),
    ]
    return out
