"""The ``serve-mixed`` workload.

One ``repro-paper serve`` process with default flags over a fresh cache
directory, pre-warmed with the quarter-size paper grid (32 points,
requested once each over HTTP).  Set-up is server start plus pre-warm;
it is repeated three times and the median reported.

Then one keep-alive connection cycles cache hits over the warm points
while a second requests a seeded stream of fresh, reduced-size
``accuracy`` and ``speculation`` points, each a miss the server
computes and stores; both are closed loops.  The miss stream has a
fixed length, sized to last about ``--seconds``, so the work it causes
repeats exactly per seed.  The end-to-end figures are the misses'
(compute-bound); the hits' latency under the shared interpreter lock
is printed beside them.

Checks: every hit's ``result`` bytes equal the stored entry's; every
miss's ``result`` bytes equal an in-process ``execute_point`` of the
same point, run after the timed window.  Responses are not decoded:
the ``result`` bytes are sliced out of the body and compared.

A traced run starts the server through ``launcher.py`` and turns
tracing on halfway through the miss stream; the first half is the
untraced baseline for the tracing overhead, the second half gives the
per-layer metrics.
"""

from __future__ import annotations

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import quote

from benchlib import (
    TAIL,
    Server,
    client_gc_paused,
    get_json,
    get_request,
    median,
    percentile,
    race_seed_for,
    seeded,
)

SETUPS = 3
#: Misses the server completes per second at these sizes, on a 2-core
#: x86 host; the miss stream of a run lasts about ``seconds``.
MISSES_PER_S = 6.0

RESULT_AT = b'"result": '
WALL_AT = b', "wall_ms": '
ELAPSED_AT = b'"elapsed_s": '
HIT_HEAD = b'{"cached": true, '
MISS_HEAD = b'{"cached": false, '


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def warm_grid(seed: int) -> list[tuple[str, dict]]:
    """The quarter-size paper grid: Figure 6 panels, the accuracy grid
    at depths 1, 2 and 4, and the speculation grid (32 points)."""
    from repro.eval.experiments import FIGURE6_PANELS, accuracy_spec, speculation_spec
    from repro.harness import SweepSpec

    specs = [
        SweepSpec(kind="analytic", axes={"panel": list(FIGURE6_PANELS)},
                  base={"points": 21}),
        accuracy_spec(fast=True, depths=(1, 2, 4)),
        speculation_spec(fast=True),
    ]
    race_seed = race_seed_for(seed)
    return [
        (point.kind, seeded(point.kind, point.as_dict(), seed, race_seed))
        for spec in specs
        for point in spec.points()
    ]


def miss_stream(seed: int, cycles: int) -> list[tuple[str, dict]]:
    """Fresh reduced-size points, every one with its own workload seed
    so that each misses the cache.  Each cycle holds one accuracy and
    one speculation point per app in a seeded order, so every seed
    asks for the same mix of work."""
    from repro.apps.registry import APP_NAMES

    rng = random.Random(f"serve-mixed/{seed}")
    points = []
    for cycle in range(cycles):
        cells = [(kind, app) for kind in ("accuracy", "speculation") for app in APP_NAMES]
        rng.shuffle(cells)
        for kind, app in cells:
            own_seed = seed * 100_003 + len(points) + 1
            if kind == "accuracy":
                params = {"app": app, "num_procs": 16, "iterations": 4,
                          "depth": (1, 2, 4)[cycle % 3]}
            else:
                params = {"app": app, "num_procs": 16, "iterations": 2}
            points.append((kind, seeded(kind, params, own_seed, own_seed)))
    return points


def point_target(kind: str, params: dict) -> str:
    query = "&".join(
        [f"kind={kind}"]
        + [
            f"{name}={quote(json.dumps(value, separators=(',', ':')))}"
            for name, value in sorted(params.items())
        ]
    )
    return f"/v1/point?{query}"


def result_bytes(result) -> bytes:
    """A result exactly as the service serializes it inside a body."""
    return json.dumps(result, sort_keys=True).encode("utf-8")


def sliced(body: bytes) -> tuple[bytes, int]:
    """The ``result`` bytes of a point response, and where they end."""
    start = body.find(RESULT_AT) + len(RESULT_AT)
    end = body.rfind(WALL_AT)
    return body[start:end], end


def wall_ms(body: bytes, end: int) -> float:
    return float(body[end + len(WALL_AT) : body.rindex(b"}")])


def elapsed_s(body: bytes) -> float:
    at = body.find(ELAPSED_AT) + len(ELAPSED_AT)
    return float(body[at : body.find(b",", at)])


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def warm_server(traced: bool, grid: list[tuple[str, dict]]) -> tuple[Server, float, list[bytes]]:
    """Start a server and compute the warm grid through it; the server,
    its set-up seconds, and the stored result bytes of each point."""
    from repro.harness import ResultStore, SweepPoint
    from repro.harness.store import MISS

    server = Server(traced, "serve-mixed")
    try:
        conn = server.connect()
        answers = [conn.exchange(get_request(point_target(k, p))) for k, p in grid]
        setup_s = time.monotonic() - server.spawned
        conn.close()
        store = ResultStore(server.cache_dir)
        stored = []
        for (kind, params), (status, body) in zip(grid, answers):
            entry = store.load_entry(SweepPoint.make(kind, params))
            if status != 200 or entry is MISS:
                raise RuntimeError(f"pre-warm of {kind} {params} answered {status}")
            stored.append(result_bytes(entry.result))
            if sliced(body)[0] != stored[-1]:
                raise RuntimeError(f"pre-warm result differs from the store: {params}")
    except BaseException:
        server.close()
        raise
    return server, setup_s, stored


def start(traced: bool, grid: list[tuple[str, dict]]) -> tuple[Server, list[float], list[bytes]]:
    """Set up :data:`SETUPS` times; the last server stays up."""
    setups = []
    for attempt in range(SETUPS):
        server, setup_s, stored = warm_server(traced, grid)
        setups.append(setup_s)
        if attempt < SETUPS - 1:
            server.stop()
            server.close()
    return server, setups, stored


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def hit_loop(conn, requests, stored, order, stop, parse) -> tuple[list, int]:
    """Closed loop of hits until ``stop``; ``(samples, failures)`` with
    samples ``(start, latency_ms, wall_ms)``."""
    samples, failures, count = [], 0, len(order)
    index = 0
    while not stop.is_set():
        which = order[index % count]
        index += 1
        started = time.monotonic()
        status, body = conn.exchange(requests[which])
        latency_ms = 1000.0 * (time.monotonic() - started)
        result, end = sliced(body)
        ok = status == 200 and body.startswith(HIT_HEAD) and result == stored[which]
        failures += not ok
        samples.append((started, latency_ms, wall_ms(body, end) if parse and ok else None))
    return samples, failures


def miss_loop(conn, requests, halfway) -> tuple[list, int]:
    """Request each miss once; samples ``(latency_ms, wall_ms, elapsed_s,
    result bytes)``.  ``halfway`` runs between the two halves."""
    samples, failures = [], 0
    for index, request in enumerate(requests):
        if index == len(requests) // 2 and halfway is not None:
            halfway()
        started = time.monotonic()
        status, body = conn.exchange(request)
        latency_ms = 1000.0 * (time.monotonic() - started)
        if status != 200 or not body.startswith(MISS_HEAD):
            failures += 1
            samples.append((latency_ms, None, None, None))
            continue
        result, end = sliced(body)
        samples.append((latency_ms, wall_ms(body, end), elapsed_s(body), result))
    return samples, failures


STATZ_COUNTERS = ("hits", "computes", "coalesced", "rejected", "timeouts")


def statz(server: Server) -> dict:
    conn = server.connect()
    try:
        return get_json(conn, "/statz")
    finally:
        conn.close()


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.harness import execute_point

    grid = warm_grid(seed)
    requests = [get_request(point_target(k, p)) for k, p in grid]
    misses = miss_stream(seed, max(1, round(seconds * MISSES_PER_S / 14)))
    miss_requests = [get_request(point_target(k, p)) for k, p in misses]
    order = random.Random(f"serve-mixed/{seed}").sample(range(len(grid)), len(grid))

    server, setups, stored = start(trace, grid)
    try:
        baseline: dict = {}

        def turn_on_tracing() -> None:
            baseline.update(statz(server))
            baseline["cpu"] = time.process_time()
            baseline["at"] = time.monotonic()
            server.start_tracing()

        hit_conn, miss_conn = server.connect(), server.connect()
        stop = threading.Event()
        with client_gc_paused(), ThreadPoolExecutor(max_workers=2) as pool:
            cpu0, started = time.process_time(), time.monotonic()
            hit_future = pool.submit(hit_loop, hit_conn, requests, stored, order,
                                     stop, trace)
            miss_samples, miss_failures = miss_loop(
                miss_conn, miss_requests, turn_on_tracing if trace else None
            )
            stop.set()
            hits, hit_failures = hit_future.result()
        ended, cpu1 = time.monotonic(), time.process_time()
        hit_conn.close()
        miss_conn.close()
        after = statz(server) if trace else None
        rss_mb = server.peak_rss_mb()
        spans = server.stop()
    finally:
        server.close()

    failures = hit_failures + miss_failures
    problems = []
    for (kind, params), sample in zip(misses, miss_samples):
        if sample[3] is not None and result_bytes(execute_point(kind, params)) != sample[3]:
            failures += 1
            problems.append(f"miss result differs from execute_point: {params}")
    if failures and not problems:
        problems.append(f"{failures} failed or wrong responses")
    attempted = len(grid) * SETUPS + len(hits) + len(misses)
    out = {"attempted": attempted, "failed": failures, "problems": problems,
           "named": [], "layers": None}
    if trace:
        from spans import summarize

        on = baseline["at"]
        before = [s[1] for s in hits if s[0] < on]
        traced = [s for s in hits if s[0] >= on and s[2] is not None]
        second = [s for s in miss_samples[len(miss_samples) // 2 :] if s[2] is not None]
        layers = summarize(spans["spans"], (on, ended))
        for name in STATZ_COUNTERS:
            layers[f"service.{name}"] = after[name] - baseline[name]
        for name in ("hits", "misses"):
            layers[f"trace.cache_{name}"] = (
                after["trace_cache"][name] - baseline["trace_cache"][name]
            )
        layers["service.server_ms"] = median([s[2] for s in traced])
        layers["service.transport_ms"] = median([s[1] - s[2] for s in traced])
        layers["service.compute_ms"] = median([1000.0 * s[2] for s in second])
        layers["service.wait_ms"] = median([s[1] - 1000.0 * s[2] for s in second])
        layers["client.cpu_s"] = cpu1 - baseline["cpu"]
        untraced_p50 = median(before)
        layers["tracing.overhead_pct"] = (
            100.0 * (median([s[1] for s in traced]) - untraced_p50) / untraced_p50
        )
        out["layers"] = layers
        return out

    window = ended - started
    miss_ms = [s[0] for s in miss_samples]
    miss_p50, miss_tail = median(miss_ms), percentile(miss_ms, TAIL)
    hit_ms = [s[1] for s in hits]
    hit_p50, hit_tail = median(hit_ms), percentile(hit_ms, 99.0)
    out["metrics"] = {
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
        "latency_p90_ms": miss_tail,
        "throughput_per_s": len(misses) / window,
    }
    out["named"] = [
        ("miss_p50_ms", miss_p50, "ms", f"{len(misses)} misses"),
        (f"miss_p{TAIL:g}_ms", miss_tail, "ms", f"{len(misses)} misses"),
        ("miss_rps", len(misses) / window, "1/s", f"{window:.1f} s window"),
        ("hit_p50_ms", hit_p50, "ms", f"{len(hits)} hits"),
        ("hit_p99_ms", hit_tail, "ms", f"{len(hits)} hits"),
        ("hit_rps", len(hits) / window, "1/s", f"{len(hits)} hits"),
        ("setup_s", median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", rss_mb, "MB", "server process"),
        ("error_rate", failures / attempted, "ratio", f"{failures}/{attempted}"),
        ("client.cpu_s", cpu1 - cpu0, "s", "load generator CPU in the window"),
    ]
    return out
