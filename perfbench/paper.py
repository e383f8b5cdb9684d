"""The ``paper`` workload: every paper experiment, cold, then warm.

The parent (:func:`run`) starts this file as a fresh process several
times: a few ``--probe`` runs that stop right before the first point
(set-up samples), then one full run.  The full run regenerates every
paper experiment at paper size from an empty cache, serially through
``ParallelRunner(jobs=1)`` and a fresh ``ResultStore``, with the
benchmark seed in every point's ``seed`` and ``race_seed``.  It then
renders the paper again and again from the filled cache (warm passes).

Checks: every warm pass renders byte-identical text to the cold pass;
one accuracy point is re-scored through the per-message predictors over
``ProtocolEmulator.run`` messages and matches its stored result; the
simulated statistics of every speculation point hash to the same digest
on every run of a seed.

A traced run (``--trace 1``) makes one untraced cold pass, then a
second cold pass and 20 warm passes with spans around every layer's
public calls; tracing overhead is the second cold pass over the first.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from benchlib import (
    BENCH_DIR,
    ROOT,
    TAIL,
    WORK,
    BenchError,
    child_env,
    digest,
    median,
    percentile,
    race_seed_for,
    remove_tree,
    require_source,
    seeded,
    work_dir,
)

#: Simulated-statistics digests of the paper-size speculation grid per
#: seed, recorded when the benchmark was defined; a run at one of these
#: seeds fails if any simulated number has changed since.
GOLDEN = BENCH_DIR / "golden.json"
PROBES = 4
#: Warm passes run for this share of ``--seconds`` (20 when traced).
WARM_SHARE = 0.5
TRACED_WARM_PASSES = 20


# ----------------------------------------------------------------------
# child process
# ----------------------------------------------------------------------
def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def _seeded_runner_class():
    from repro.harness import ParallelRunner, SweepPoint, SweepSpec

    class SeededRunner(ParallelRunner):
        """``ParallelRunner(jobs=1)`` that puts the benchmark seed into
        every accuracy point (``seed``, ``race_seed``) and speculation
        point (``seed``) of the grids the experiment functions build."""

        def __init__(self, store, seed: int, race_seed: int) -> None:
            super().__init__(jobs=1, store=store)
            self.seed, self.race_seed = seed, race_seed
            self.executed = 0

        def seed_point(self, point):
            return SweepPoint.make(
                point.kind,
                seeded(point.kind, point.as_dict(), self.seed, self.race_seed),
            )

        def run(self, sweep):
            points = sweep.points() if isinstance(sweep, SweepSpec) else sweep
            result = super().run([self.seed_point(p) for p in points])
            self.executed += result.report.executed
            return result

    return SeededRunner


def sim_digest(runs: list) -> str:
    """Digest of the simulated statistics of ``(app, RunResult)`` pairs:
    cycles, compute/stall/sync cycles, request counters and every
    speculation counter (sent, used, missed, ...)."""
    return digest(
        sorted(
            [
                app,
                result.mode.value,
                result.cycles,
                result.compute_cycles,
                result.stall_cycles,
                result.sync_cycles,
                result.read_requests,
                result.write_requests,
                result.counters,
                {f: getattr(result.speculation, f)
                 for f in result.speculation.__dataclass_fields__},
            ]
            for app, result in runs
        )
    )


def _reference_check(runner, seed: int, race_seed: int) -> bool:
    """Re-score one stored accuracy point with the per-message
    predictors over ``ProtocolEmulator.run`` messages."""
    from repro.apps.registry import APP_NAMES, make_app
    from repro.common.rng import DeterministicRng
    from repro.eval.experiments import ACCURACY_ITERATIONS, PREDICTORS
    from repro.harness import SweepPoint
    from repro.harness.store import MISS
    from repro.predictors import PREDICTOR_CLASSES
    from repro.protocol.emulator import ProtocolEmulator

    app = APP_NAMES[seed % len(APP_NAMES)]
    iterations = ACCURACY_ITERATIONS[app]
    point = runner.seed_point(
        SweepPoint.make(
            "accuracy",
            {"app": app, "depth": 1, "iterations": iterations,
             "predictors": list(PREDICTORS)},
        )
    )
    entry = runner.store.load_entry(point)
    if entry is MISS:
        return False
    workload = make_app(app, num_procs=16, iterations=iterations, seed=seed).build()
    predictors = {name: PREDICTOR_CLASSES[name](depth=1) for name in PREDICTORS}
    emulator = ProtocolEmulator(DeterministicRng(race_seed))
    for _block, messages in emulator.run(workload.block_scripts()):
        for message in messages:
            for predictor in predictors.values():
                predictor.observe(message)
    for name, predictor in predictors.items():
        flush = getattr(predictor, "flush", None)
        if flush is not None:
            flush()
        average_pte = predictor.average_pattern_entries()
        rescored = {
            "accuracy": predictor.stats.accuracy,
            "coverage": predictor.stats.coverage,
            "correct_fraction": predictor.stats.correct_fraction,
            "average_pte": average_pte,
            "overhead_bytes": predictor.storage_profile(16, 1).bytes_per_block(
                average_pte
            ),
        }
        if entry.result["runs"][name] != rescored:
            return False
    return True


def child(args: argparse.Namespace) -> None:
    require_source()
    # Everything the cold pass needs is imported before the first point:
    # set-up is process start plus imports.
    import repro.eval.accuracy  # noqa: F401
    import repro.eval.performance  # noqa: F401
    from repro.eval.experiments import PAPER_EXPERIMENTS
    from repro.eval.reporting import render
    from repro.harness import ResultStore
    from repro.sim.machine import Machine
    from repro.trace import configure_trace_cache, snapshot_counters

    from spans import Tracer, install_compute, summarize

    seed, race_seed = args.seed, race_seed_for(args.seed)
    SeededRunner = _seeded_runner_class()

    # Simulated statistics of every timing run, for the digest.
    simulated: list = []
    machine_run = Machine.run

    def run_and_keep(self, max_events=None):
        result = machine_run(self, max_events)
        simulated.append((self.workload.name, result))
        return result

    Machine.run = run_and_keep
    tracer = Tracer()
    if args.trace:
        install_compute(tracer)

    def fresh_runner(cache: Path):
        configure_trace_cache(cache)
        return SeededRunner(ResultStore(cache), seed, race_seed)

    caches = [Path(args.cache) / "a", Path(args.cache) / "b"]
    runner = fresh_runner(caches[0])
    _emit({"ready": time.monotonic()})
    if args.probe:
        return

    def render_paper(runner, span: str) -> tuple[str, float]:
        """Every paper experiment as text, and the seconds it took."""
        started = time.perf_counter()
        texts = []
        for name in PAPER_EXPERIMENTS:
            with tracer.span(span, name):
                texts.append(render(name, runner=runner))
        return "\n".join(texts), time.perf_counter() - started

    report: dict = {}
    cold_text, cold_s = render_paper(runner, "eval.experiment")
    report["cold_s"] = cold_s
    report["points"] = runner.executed
    checks = {}
    if args.trace:
        hits0, misses0 = snapshot_counters()
        tracer.enable()
        window_start = time.monotonic()
        runner = fresh_runner(caches[1])
        traced_text, traced_s = render_paper(runner, "eval.experiment")
        checks["traced_cold"] = traced_text == cold_text
        hits1, misses1 = snapshot_counters()
        passes = TRACED_WARM_PASSES
    else:
        passes = None
    warm = SeededRunner(ResultStore(runner.store.root), seed, race_seed)
    warm_ms, identical = [], 0
    deadline = time.monotonic() + WARM_SHARE * args.seconds
    while len(warm_ms) < passes if passes is not None else time.monotonic() < deadline:
        text, elapsed = render_paper(warm, "eval.warm")
        warm_ms.append(1000.0 * elapsed)
        identical += text == cold_text
    report["warm_ms"] = warm_ms
    checks["warm"] = identical == len(warm_ms)
    if args.trace:
        window = (window_start, time.monotonic())
        layers = summarize(tracer.spans, window)
        layers["trace.cache_hits"] = hits1 - hits0
        layers["trace.cache_misses"] = misses1 - misses0
        layers["tracing.overhead_pct"] = 100.0 * (traced_s - cold_s) / cold_s
        report["layers"] = layers
        tracer.dump(str(WORK / "spans-paper.json"))
    tracer.enabled = False
    checks["reference"] = _reference_check(runner, seed, race_seed)
    report["checks"] = checks
    report["sim_digest"] = sim_digest(
        simulated[: len(simulated) // (2 if args.trace else 1)]
    )
    report["output_digest"] = digest(cold_text)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit({"report": report})


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
def _spawn(seed: int, seconds: float, trace: bool, probe: bool) -> tuple[float, dict]:
    """Start the child; ``(setup seconds, final record)``."""
    cache = work_dir("paper")
    cmd = [sys.executable, str(BENCH_DIR / "paper.py"), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--cache", str(cache)]
    if probe:
        cmd.append("--probe")
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        with proc:
            lines = [json.loads(line) for line in proc.stdout]
        if (
            proc.returncode != 0
            or not lines
            or "ready" not in lines[0]
            or not (probe or "report" in lines[-1])
        ):
            raise BenchError(f"paper child failed with {proc.returncode}")
        return lines[0]["ready"] - spawned, lines[-1]
    finally:
        remove_tree(cache)


def run(seed: int, seconds: float, trace: bool) -> dict:
    setups = [_spawn(seed, seconds, trace, probe=True)[0] for _ in range(PROBES)]
    setup, final = _spawn(seed, seconds, trace, probe=False)
    setups.append(setup)
    report = final["report"]
    checks = report["checks"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["sim_digest"]
    if str(seed) in golden:
        checks["golden_sim_digest"] = report["sim_digest"] == golden[str(seed)]
    warm_ms = report["warm_ms"]
    attempted = report["points"] + len(warm_ms) + len(checks)
    failed = sum(not ok for ok in checks.values())
    warm_p50, warm_tail = median(warm_ms), percentile(warm_ms, TAIL)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": [f"check failed: {name}" for name, ok in checks.items() if not ok],
        "repeats": {"sim_digest": report["sim_digest"],
                    "output_digest": report["output_digest"]},
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": report["rss_mb"],
            "latency_p90_ms": warm_tail,
            "throughput_per_s": report["points"] / report["cold_s"],
        },
        "layers": report.get("layers"),
        "named": [
            ("wall_s", report["cold_s"], "s", f"{report['points']} points, cold"),
            ("warm_s", warm_p50 / 1000.0, "s",
             f"median of {len(warm_ms)} warm passes; "
             f"p{TAIL:g} {warm_tail / 1000.0:.4f} s"),
            ("setup_s", median(setups), "s", f"median of {len(setups)} starts"),
            ("peak_rss_mb", report["rss_mb"], "MB", "paper process"),
            ("error_rate", failed / attempted, "ratio", f"{failed}/{attempted}"),
        ],
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--probe", action="store_true")
    child(parser.parse_args())
