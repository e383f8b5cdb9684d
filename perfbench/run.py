"""The reproduction's benchmark: one command per named workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1999 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper`` -- every paper experiment, cold from an empty cache, then
  warm passes over the filled cache (``paper.py``);
* ``serve-mixed`` -- ``repro-paper serve`` computing a stream of fresh
  points while a second connection asks for cache hits (``serve.py``);
* ``session-stream`` -- streaming prediction sessions (``stream.py``).

Every run prints the workload's named metrics with their units, one per
line, and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, identical in name on every workload:

* ``setup_s`` -- median set-up time over several set-ups in the run;
* ``peak_rss_mb`` -- peak RSS of the process doing the work;
* ``latency_p90_ms`` -- p90 of the workload's measured request: a warm
  paper pass (``paper``), a computed miss (``serve-mixed``), one
  event-batch POST (``session-stream``).  The medians are printed as
  named metrics but not gated: each sits between two modes (a batch or
  hit that waited for the other connection or not), which made it
  swing with host speed more than the p90 does;
* ``throughput_per_s`` -- points computed per second of the cold pass
  (``paper``), misses computed per second (``serve-mixed``), session
  events per second (``session-stream``).

An operation that fails or returns a wrong result counts in ``failed``;
the named ``error_rate`` line is ``failed / attempted``.

With ``--trace 1`` the run records spans around each layer's public
calls and the metrics are the per-layer ones (``spans.PER_LAYER``).

All times are host time.  The repository holds no measurements of real
hardware, so the model is unvalidated and no simulator-error figure is
reported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from benchlib import WORK, BenchError, check_repeats, require_source

WORKLOADS = ("paper", "serve-mixed", "session-stream")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        require_source()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Servers are stopped with SIGINT.  A shell that starts this command
    # in the background leaves SIGINT ignored, and an ignored signal
    # stays ignored across exec; a Python handler does not, so the
    # servers start with the default and stop cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # The trace-cache and API-key variables would reach the in-process
    # reference computations and every child process.
    for name in ("REPRO_TRACE_CACHE", "REPRO_API_KEY"):
        os.environ.pop(name, None)
    WORK.mkdir(exist_ok=True)

    trace = bool(args.trace)
    if args.workload == "paper":
        import paper

        outcome = paper.run(args.seed, args.seconds, trace)
    elif args.workload == "session-stream":
        import stream

        outcome = stream.run(args.seed, args.seconds, trace)
    else:
        import serve

        outcome = serve.run(args.seed, args.seconds, trace)

    from spans import REPEATING, per_layer_result

    problems = list(outcome["problems"])
    attempted, failed = outcome["attempted"], outcome["failed"]
    repeats = dict(outcome.get("repeats", {}))
    if trace:
        repeats.update({name: outcome["layers"].get(name, 0) for name in REPEATING})
    if repeats:
        key = f"{args.workload}|{args.seed}|{args.seconds:g}|trace={args.trace}"
        changed = check_repeats(key, repeats)
        attempted += 1
        failed += bool(changed)
        problems += [f"differs from an earlier run of this seed: {n}" for n in changed]

    if trace:
        metrics = per_layer_result(outcome["layers"])
        for name, entry in metrics.items():
            tag = " (repeats exactly)" if name in REPEATING else ""
            print(f"{name} = {entry['value']:.6g} {entry['unit']}{tag}")
    else:
        for name, value, unit, note in outcome["named"]:
            print(f"{name} = {value:.6g} {unit}  ({note})")
        metrics = {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
