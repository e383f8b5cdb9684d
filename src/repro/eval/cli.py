"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-paper                    # reproduce the paper (all its figures/tables)
    repro-paper figure7 table5     # run specific experiments
    repro-paper --fast --jobs 4    # quarter-size runs, 4 worker processes
    repro-paper --refresh figure9  # recompute, ignoring cached points
    repro-paper --list             # list experiment ids
    repro-paper scaling32          # paper-beyond studies run when named

Grid-shaped experiments execute through the parallel harness: every
cache miss runs on the runner's pool (one background thread, or
``--jobs`` worker processes kept for the whole invocation) and every
computed point is cached under ``--cache-dir`` (default
``.repro-cache``, override with ``REPRO_CACHE_DIR``), so re-running a
figure only recomputes what changed.  ``--no-cache`` disables the
store, ``--refresh`` overwrites it.

The ``sweep`` subcommand runs arbitrary user-defined grids beyond the
paper's own, printing one JSON object per point::

    repro-paper sweep --kind accuracy --axis app=em3d,moldyn \\
        --axis depth=1,2,4 --set iterations=8 --jobs 4

Accuracy points are scored by the vectorized trace pipeline and
speculation points run on the calendar-queue timing simulator; each
has exactly one implementation (docs/performance.md).

Several workers — processes or hosts — can divide one grid between
them: point each at the same ``--cache-dir`` plus a shared
``--claim-dir`` (canonically ``<cache-dir>/claims``) and every point
is claimed before it is computed — by a worker with a free compute
slot, so each holds at most ``--jobs`` claims — and the grid is
computed exactly once across the fleet (``--worker-id`` names each
worker; stale claims of crashed workers are stolen after
``--claim-ttl``).  ``sweep --follow``
tails a grid other workers are computing without computing anything
itself.  See docs/harness.md.

The ``serve`` subcommand exposes the same sweep points over HTTP —
cached results answer instantly, misses are computed in a worker pool
with request coalescing (see ``docs/service.md``)::

    repro-paper serve --port 8599 --jobs 2
    curl 'http://127.0.0.1:8599/v1/point?kind=accuracy&app=em3d&depth=2'

The ``session`` subcommand streams an application's coherence-message
trace through a live prediction session on such a server and prints
the final summary — whose ``run`` object is byte-identical to the
matching batch sweep point::

    repro-paper session --url http://127.0.0.1:8599 \\
        --app em3d --predictor MSP --depth 2 --num-procs 4

The ``fleet`` subcommand renders a claims directory's ``events.log``
into a who-computed-what status table — per-worker counters, currently
held claims with heartbeat ages, and an exactly-once audit — without
joining the fleet or taking any claims itself::

    repro-paper fleet --cache-dir /shared/cache        # <cache-dir>/claims
    repro-paper fleet --claim-dir /shared/claims --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

from repro.common.literals import parse_literal
from repro.eval.reporting import RENDERERS, render
from repro.harness import (
    DEFAULT_CLAIM_TTL_S,
    MISS,
    ClaimBoard,
    ParallelRunner,
    ResultStore,
    SweepError,
    SweepSpec,
    open_runner,
    runner_kinds,
)


def _cache_dir(args: argparse.Namespace) -> str:
    """``--cache-dir``, else REPRO_CACHE_DIR, else ``.repro-cache``;
    resolved per invocation so REPRO_CACHE_DIR set after import works."""
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _jobs_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0 (0 = all cores)")
    return value


def _add_harness_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for sweep execution (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="sweep-point result cache (default: .repro-cache, "
        "or the REPRO_CACHE_DIR environment variable)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every point without reading or writing the cache",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every point and overwrite cached results",
    )
    parser.add_argument(
        "--claim-dir",
        default=None,
        metavar="DIR",
        help="coordinate with other workers through claim files in DIR "
        "(canonically <cache-dir>/claims): N processes or hosts pointed "
        "at one shared --cache-dir divide a grid between them, each "
        "point computed exactly once (see docs/harness.md)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="claim owner id for this worker (default: host:pid)",
    )
    parser.add_argument(
        "--claim-ttl",
        type=float,
        default=DEFAULT_CLAIM_TTL_S,
        metavar="SECONDS",
        help="heartbeat silence before a crashed worker's claims are "
        f"stolen (default {DEFAULT_CLAIM_TTL_S:.0f}s)",
    )


def _make_runner(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> ParallelRunner:
    try:
        return open_runner(
            jobs=args.jobs,
            cache_dir=None if args.no_cache else _cache_dir(args),
            refresh=args.refresh,
            claim_dir=args.claim_dir,
            worker_id=args.worker_id,
            claim_ttl_s=args.claim_ttl,
        )
    except ValueError as exc:
        parser.error(f"--claim-dir: {exc}")


def _parse_axis(text: str) -> tuple[str, list[Any]]:
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"expected NAME=V1,V2,... got {text!r}"
        )
    return name, [parse_literal(v) for v in values.split(",")]


def _parse_setting(text: str) -> tuple[str, Any]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, parse_literal(value)


def _sweep_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-paper sweep",
        description=(
            "Run a user-defined parameter grid through the experiment "
            "harness and print one JSON object per sweep point."
        ),
        epilog=(
            "Every --axis/--set name is a point parameter and part of "
            "the point's cache key; runners ignore names they do not "
            "read.  See docs/harness.md for each kind's parameters."
        ),
    )
    parser.add_argument(
        "--kind",
        required=True,
        choices=runner_kinds(),
        help="which point runner executes each grid cell",
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        type=_parse_axis,
        metavar="NAME=V1,V2,...",
        help="a swept parameter (repeatable); the grid is the product",
    )
    parser.add_argument(
        "--set",
        dest="settings",
        action="append",
        default=[],
        type=_parse_setting,
        metavar="NAME=VALUE",
        help="a fixed parameter shared by every point (repeatable)",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="compute nothing: tail the cache until every grid point "
        "has been computed (e.g. by claimed workers on other hosts), "
        "printing each point as it lands",
    )
    parser.add_argument(
        "--follow-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up following after this long with points still missing",
    )
    _add_harness_options(parser)
    args = parser.parse_args(argv)
    if not args.axis:
        parser.error("at least one --axis is required")

    spec = SweepSpec(kind=args.kind, axes=dict(args.axis), base=dict(args.settings))
    if args.follow:
        if args.no_cache:
            parser.error("--follow requires the result cache (drop --no-cache)")
        if args.refresh:
            parser.error("--follow computes nothing; it cannot --refresh")
        if args.claim_dir is not None:
            parser.error(
                "--follow computes nothing and takes no claims; drop --claim-dir"
            )
        return _follow_sweep(spec, ResultStore(_cache_dir(args)), args.follow_timeout)
    started = time.perf_counter()
    runner = _make_runner(args, parser)
    try:
        result = runner.run(spec)
    except SweepError as exc:
        print(f"repro-paper sweep: error: {exc}", file=sys.stderr)
        return 1
    except (TypeError, ValueError) as exc:
        print(
            f"repro-paper sweep: error: invalid sweep parameters: {exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        runner.close()
    elapsed = time.perf_counter() - started
    # sort_keys: a freshly computed result and one loaded back from the
    # store must print identical bytes (the store writes sorted JSON),
    # so serial, cached, claimed, and --follow output all compare equal.
    for point, value in result.items():
        print(json.dumps({"params": point.as_dict(), "result": value}, sort_keys=True))
    report = result.report
    timing = report.timing_summary()
    claims = getattr(runner, "claims", None)
    claimed = ""
    if claims is not None:
        stats = claims.stats()
        claimed = (
            f"; claims: {stats['computed']} computed, "
            f"{stats['stolen']} stolen as {stats['owner']}"
        )
    print(
        f"[{len(result)} points in {elapsed:.1f}s: {report.executed} executed, "
        f"{report.cached} cached, jobs={report.jobs}"
        + (f"; {timing}" if timing else "")
        + claimed
        + "]",
        file=sys.stderr,
    )
    return 0


def _follow_sweep(
    spec: SweepSpec,
    store: ResultStore,
    timeout_s: float | None,
    poll_s: float = 0.25,
) -> int:
    """Tail a grid another worker is computing: print points as they land.

    Output is byte-identical to a normal ``sweep`` over the same grid —
    every grid point in grid order, one JSON object per line — so a
    follower on one host can pipe the results of workers on others.
    """
    points = spec.points()
    started = time.perf_counter()
    deadline = None if timeout_s is None else started + timeout_s
    for point in points:
        while True:
            entry = store.load_entry(point)
            if entry is not MISS:
                print(
                    json.dumps(
                        {"params": point.as_dict(), "result": entry.result},
                        sort_keys=True,
                    ),
                    flush=True,
                )
                break
            if deadline is not None and time.perf_counter() > deadline:
                print(
                    f"repro-paper sweep: error: --follow timed out after "
                    f"{timeout_s}s with points still missing from "
                    f"{store.root}",
                    file=sys.stderr,
                )
                return 1
            time.sleep(poll_s)
    elapsed = time.perf_counter() - started
    print(
        f"[{len(points)} points followed in {elapsed:.1f}s from {store.root}]",
        file=sys.stderr,
    )
    return 0


def _serve_main(argv: list[str]) -> int:
    from repro.service import ReproService, ServiceConfig
    from repro.service.server import run_service

    parser = argparse.ArgumentParser(
        prog="repro-paper serve",
        description=(
            "Serve sweep points over HTTP: cached results answer "
            "instantly, misses are computed in a worker pool with "
            "request coalescing.  Endpoints: GET /v1/point, "
            "POST /v1/sweep, GET /v1/jobs/<id>, GET /v1/experiments, "
            "POST /v1/sessions (streaming prediction sessions), "
            "GET /healthz, GET /statz, GET /metrics (Prometheus text "
            "format).  See docs/service.md."
        ),
        epilog=(
            "Operability: --api-key (or REPRO_API_KEY) requires every "
            "request except /healthz to present the key via "
            "'Authorization: Bearer' or 'X-API-Key'; /metrics exposes "
            "the /statz counters in Prometheus text format; the hot "
            "tier (--hot-entries/--hot-bytes) serves repeat cache hits "
            "from memory.  'repro-paper fleet' summarizes a claims "
            "directory shared by several replicas."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8599,
        help="listening port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=16,
        metavar="N",
        help="in-flight computation bound before requests get 429",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request compute timeout (responses 504 past it; "
        "the computation finishes and is cached anyway)",
    )
    from repro.service.sessions import (
        DEFAULT_MAX_EVENTS,
        DEFAULT_MAX_SESSIONS,
        DEFAULT_SESSION_TTL_S,
    )

    parser.add_argument(
        "--max-sessions",
        type=int,
        default=DEFAULT_MAX_SESSIONS,
        metavar="N",
        help="live streaming-session bound before POST /v1/sessions "
        f"gets 429 (default {DEFAULT_MAX_SESSIONS})",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=DEFAULT_SESSION_TTL_S,
        metavar="SECONDS",
        help="idle time before a session is reaped "
        f"(default {DEFAULT_SESSION_TTL_S:.0f}s)",
    )
    parser.add_argument(
        "--session-max-events",
        type=int,
        default=DEFAULT_MAX_EVENTS,
        metavar="N",
        help="per-session event bound before batches get 413 "
        f"(default {DEFAULT_MAX_EVENTS})",
    )
    from repro.harness import DEFAULT_HOT_BYTES, DEFAULT_HOT_ENTRIES

    parser.add_argument(
        "--api-key",
        default=os.environ.get("REPRO_API_KEY"),
        metavar="KEY",
        help="require this API key on every endpoint except /healthz "
        "(default: the REPRO_API_KEY environment variable; unset = "
        "no auth)",
    )
    parser.add_argument(
        "--hot-entries",
        type=int,
        default=DEFAULT_HOT_ENTRIES,
        metavar="N",
        help="in-memory hot-tier entry bound in front of the cache "
        f"(0 disables the tier; default {DEFAULT_HOT_ENTRIES})",
    )
    parser.add_argument(
        "--hot-bytes",
        type=int,
        default=DEFAULT_HOT_BYTES,
        metavar="BYTES",
        help="in-memory hot-tier byte bound "
        f"(0 disables the tier; default {DEFAULT_HOT_BYTES})",
    )
    _add_harness_options(parser)
    args = parser.parse_args(argv)
    if args.max_pending < 1:
        parser.error("--max-pending must be >= 1")
    if args.max_sessions < 1:
        parser.error("--max-sessions must be >= 1")
    if args.session_ttl <= 0:
        parser.error("--session-ttl must be > 0 seconds")
    if args.session_max_events < 1:
        parser.error("--session-max-events must be >= 1")
    if args.hot_entries < 0 or args.hot_bytes < 0:
        parser.error("--hot-entries/--hot-bytes must be >= 0 (0 disables)")

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else _cache_dir(args),
        refresh=args.refresh,
        max_pending=args.max_pending,
        timeout_s=args.timeout,
        claim_dir=args.claim_dir,
        worker_id=args.worker_id,
        claim_ttl_s=args.claim_ttl,
        max_sessions=args.max_sessions,
        session_ttl_s=args.session_ttl,
        session_max_events=args.session_max_events,
        api_key=args.api_key,
        hot_entries=args.hot_entries,
        hot_bytes=args.hot_bytes,
    )
    try:
        service = ReproService(config)
    except ValueError as exc:
        parser.error(f"--claim-dir: {exc}")

    def announce(service) -> None:
        auth = " (API key required)" if config.api_key else ""
        print(f"repro-paper serve: listening on {service.url}{auth}", flush=True)

    return run_service(service, announce)


def _fleet_main(argv: list[str]) -> int:
    """``repro-paper fleet``: render a claims directory into a status table.

    Read-only by design — it parses ``events.log`` and stats the live
    ``*.claim`` files, but never takes, refreshes, or steals a claim,
    so it is safe to run against a fleet mid-computation.
    """
    parser = argparse.ArgumentParser(
        prog="repro-paper fleet",
        description=(
            "Summarize the claim coordination of workers sharing one "
            "cache: per-worker claimed/computed/stolen counters from "
            "events.log, currently held claims with heartbeat ages, "
            "and an exactly-once audit flagging any point computed "
            "more than once."
        ),
    )
    parser.add_argument(
        "--claim-dir",
        default=None,
        metavar="DIR",
        help="claims directory to inspect "
        "(default: <cache-dir>/claims)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache dir whose claims/ subdirectory to inspect "
        "(default: .repro-cache, or REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--claim-ttl",
        type=float,
        default=DEFAULT_CLAIM_TTL_S,
        metavar="SECONDS",
        help="heartbeat age past which a held claim is flagged stale "
        f"(default {DEFAULT_CLAIM_TTL_S:.0f}s)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of the table",
    )
    args = parser.parse_args(argv)
    if args.claim_ttl <= 0:
        parser.error("--claim-ttl must be > 0 seconds")

    from pathlib import Path

    claim_dir = Path(
        args.claim_dir
        if args.claim_dir is not None
        else Path(_cache_dir(args)) / "claims"
    )
    if not claim_dir.is_dir():
        print(
            f"repro-paper fleet: error: no claims directory at {claim_dir} "
            "(point --claim-dir or --cache-dir at a fleet's shared cache)",
            file=sys.stderr,
        )
        return 1
    # ClaimBoard only to reuse its event/claim parsing: constructing it
    # registers no claims and writes nothing (the dir already exists).
    board = ClaimBoard(claim_dir, owner="fleet-status", ttl_s=args.claim_ttl)
    events = board.events()

    counted_events = ("claimed", "computed", "released", "stolen", "lost")
    owners: dict[str, dict[str, int]] = {}
    computed_keys: dict[str, int] = {}
    for record in events:
        event = record.get("event")
        owner = record.get("owner")
        if event not in counted_events or not isinstance(owner, str):
            continue
        row = owners.setdefault(owner, {name: 0 for name in counted_events})
        row[event] += 1
        if event == "computed" and isinstance(record.get("key"), str):
            computed_keys[record["key"]] = computed_keys.get(record["key"], 0) + 1
    duplicates = sorted(
        key for key, count in computed_keys.items() if count > 1
    )

    active = []
    for path in sorted(claim_dir.glob("*.claim")):
        key = path.stem
        info = board.read(key)
        if info is None:
            continue  # released between glob and stat
        active.append(
            {
                "key": key,
                "owner": info.owner,
                "host": info.host,
                "pid": info.pid,
                "age_s": round(info.age_s, 1),
                "stale": info.age_s > args.claim_ttl,
            }
        )

    if args.json:
        print(
            json.dumps(
                {
                    "claim_dir": str(claim_dir),
                    "ttl_s": args.claim_ttl,
                    "events": len(events),
                    "workers": owners,
                    "points_computed": len(computed_keys),
                    "duplicates": duplicates,
                    "active": active,
                },
                sort_keys=True,
            )
        )
        return 0

    print(f"fleet status: {claim_dir} (ttl {args.claim_ttl:.0f}s)")
    if not owners:
        print("  no claim events recorded yet")
    else:
        width = max(len("worker"), max(len(owner) for owner in owners))
        header = "  ".join(f"{name:>8}" for name in counted_events)
        print(f"{'worker':<{width}}  {header}")
        for owner in sorted(owners):
            row = owners[owner]
            cells = "  ".join(f"{row[name]:>8}" for name in counted_events)
            print(f"{owner:<{width}}  {cells}")
    print(
        f"{len(computed_keys)} distinct points computed across "
        f"{len(owners)} worker(s); {len(events)} events"
    )
    if duplicates:
        print(f"WARNING: {len(duplicates)} point(s) computed more than once:")
        for key in duplicates:
            print(f"  {key} x{computed_keys[key]}")
    else:
        print("exactly-once audit: clean (no point computed twice)")
    if active:
        print(f"active claims ({len(active)}):")
        for claim in active:
            stale = "  STALE" if claim["stale"] else ""
            print(
                f"  {claim['key']}  owner={claim['owner']}  "
                f"age={claim['age_s']}s{stale}"
            )
    else:
        print("active claims: none")
    return 0


def _session_main(argv: list[str]) -> int:
    from repro.service.client import (
        SessionClientError,
        load_trace,
        record_app_trace,
        replay_session,
        save_trace,
    )

    parser = argparse.ArgumentParser(
        prog="repro-paper session",
        description=(
            "Stream a coherence-event trace through a live prediction "
            "session on a repro-paper server (POST /v1/sessions) and "
            "print the final summary.  The summary's 'run' object is "
            "byte-identical to the matching batch accuracy point over "
            "the same trace.  See docs/service.md."
        ),
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8599", help="server base URL"
    )
    parser.add_argument(
        "--predictor",
        default="MSP",
        help="predictor kind for the session (default MSP)",
    )
    parser.add_argument(
        "--depth", type=int, default=1, help="history depth (default 1)"
    )
    parser.add_argument(
        "--num-procs",
        type=int,
        default=16,
        metavar="N",
        help="node count the session validates events against (default 16)",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--app",
        default=None,
        help="record the trace from this application kernel "
        "(the same emulation a batch accuracy point runs)",
    )
    source.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay a previously recorded NDJSON trace file instead",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="app iterations when recording (default: the app's paper size)",
    )
    parser.add_argument(
        "--seed", default=1999, help="app workload seed when recording"
    )
    parser.add_argument(
        "--race-seed", default=7, help="protocol race seed when recording"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=256,
        metavar="N",
        help="events per streamed NDJSON batch (default 256)",
    )
    parser.add_argument(
        "--save-trace",
        default=None,
        metavar="FILE",
        help="also write the recorded trace as NDJSON to FILE",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print each prediction line as it streams back",
    )
    args = parser.parse_args(argv)
    if args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.trace is not None and args.save_trace is not None:
        parser.error("--save-trace only applies when recording with --app")
    if args.app is None and args.trace is None:
        parser.error("one of --app or --trace is required")

    if args.trace is not None:
        try:
            events = load_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"repro-paper session: error: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            events = record_app_trace(
                args.app,
                num_procs=args.num_procs,
                iterations=args.iterations,
                seed=parse_literal(str(args.seed)),
                race_seed=parse_literal(str(args.race_seed)),
            )
        except ValueError as exc:
            print(f"repro-paper session: error: {exc}", file=sys.stderr)
            return 1
        if args.save_trace is not None:
            save_trace(args.save_trace, events)

    on_line = None
    if args.progress:
        on_line = lambda line: print(json.dumps(line, sort_keys=True))  # noqa: E731
    started = time.perf_counter()
    try:
        summary = replay_session(
            args.url,
            events,
            predictor=args.predictor,
            depth=args.depth,
            num_procs=args.num_procs,
            batch_size=args.batch,
            on_line=on_line,
        )
    except SessionClientError as exc:
        print(f"repro-paper session: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"repro-paper session: error: cannot reach {args.url}: {exc}",
            file=sys.stderr,
        )
        return 1
    elapsed = time.perf_counter() - started
    print(json.dumps(summary, sort_keys=True))
    print(
        f"[{len(events)} events streamed in {elapsed:.1f}s "
        f"({args.predictor} depth={args.depth})]",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "session":
        return _session_main(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description=(
            "Reproduce the tables and figures of Lai & Falsafi, 'Memory "
            "Sharing Predictor: The Key to a Speculative Coherent DSM' "
            "(ISCA 1999).  See also the 'sweep' subcommand for arbitrary "
            "parameter grids."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (default: all); see --list",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="quarter-size workloads for a quick smoke run",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    _add_harness_options(parser)
    args = parser.parse_args(argv)

    from repro.eval.experiments import EXTRA_EXPERIMENTS, PAPER_EXPERIMENTS

    if args.list:
        for name in RENDERERS:
            extra = "  (paper-beyond; run explicitly)" if name in EXTRA_EXPERIMENTS else ""
            print(f"{name}{extra}")
        return 0

    # A bare invocation reproduces the paper; paper-beyond studies
    # (e.g. scaling32) run only when named explicitly.
    names = args.experiments or list(PAPER_EXPERIMENTS)
    unknown = [n for n in names if n not in RENDERERS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(known: {', '.join(RENDERERS)})"
        )

    runner = _make_runner(args, parser)
    try:
        for name in names:
            started = time.perf_counter()
            runner.last_report = None  # so table1/table2 don't echo stale timing
            try:
                output = render(name, fast=args.fast, runner=runner)
            except SweepError as exc:
                print(f"repro-paper: error: {exc}", file=sys.stderr)
                return 1
            elapsed = time.perf_counter() - started
            print(output)
            report = runner.last_report
            timing = report.timing_summary() if report is not None else ""
            print(
                f"[{name} regenerated in {elapsed:.1f}s"
                + (f"; {timing}" if timing else "")
                + "]"
            )
            print()
    finally:
        runner.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
