#!/usr/bin/env python
"""Perf smoke: each hot path must not be slower than its frozen oracle.

Two independent gates, both run by the CI ``perf-smoke`` lane and
locally via::

    PYTHONPATH=src python scripts/perf_smoke.py

**Accuracy gate**: the vectorized trace pipeline
(:func:`repro.eval.accuracy.run_predictors`) vs the per-message
predictors (``tests/oracles/accuracy.py``), over a fixed slice of the
Figure 7 grid (every app at reduced iterations).

**Timing gate**: the timing simulator (:class:`repro.sim.machine.Machine`)
vs the heapq / closure-based reference machine
(``tests/oracles/machine.py``), over a Figure 9 slice (three apps,
Base-DSM + SWI-DSM).  Runs are interleaved attempt by attempt so a
drifting shared runner cannot bias one side, every cell asserts both
``RunResult``\\ s are bit-identical (a cheap re-check of the
equivalence suite's contract), and the measured per-cell and total
speedups are written to ``BENCH_timing.json`` at the repo root.

Both comparisons compute bit-identical results (tests/trace/ and
tests/sim/test_engine_equivalence.py enforce that); this script guards
the *performance* claims.  The thresholds are deliberately loose
(1.0x — "never slower than the oracle") so a noisy shared runner cannot
flake on real >1.5x speedups; the recorded numbers are the claim.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The oracles live in the test tree (``tests.oracles``).
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: The fixed accuracy grid: every app, reduced iterations, paper nodes.
GRID_ITERATIONS = {
    "appbt": 8,
    "barnes": 10,
    "em3d": 10,
    "moldyn": 10,
    "ocean": 6,
    "tomcatv": 10,
    "unstructured": 8,
}
NUM_PROCS = 16
DEPTH = 1

#: Fail when a hot path is not at least this many times faster.
THRESHOLD = 1.0

#: Timing runs per side; the best one is kept (damps CI noise).
ATTEMPTS = 2

#: The Figure 9 slice: three apps on Base-DSM + SWI-DSM (the paper's
#: baseline and its full speculative variant).
TIMING_GRID = {"appbt": 4, "barnes": 4, "ocean": 4}
TIMING_MODES = ("Base-DSM", "SWI-DSM")
TIMING_ATTEMPTS = 3
TIMING_THRESHOLD = 1.0
BENCH_SCHEMA = 3

BENCH_PATH = REPO_ROOT / "BENCH_timing.json"


def run_grid(run_predictors) -> float:
    from repro.trace import configure_trace_cache

    configure_trace_cache(None)  # both sides pay full emulation cost
    best = float("inf")
    for _ in range(ATTEMPTS):
        started = time.perf_counter()
        for app, iterations in GRID_ITERATIONS.items():
            run_predictors(
                app, depth=DEPTH, num_procs=NUM_PROCS, iterations=iterations
            )
        best = min(best, time.perf_counter() - started)
    return best


def accuracy_gate() -> int:
    from repro.eval.accuracy import run_predictors
    from tests.oracles import run_predictors_reference

    reference = run_grid(run_predictors_reference)
    vectorized = run_grid(run_predictors)
    speedup = reference / vectorized if vectorized else float("inf")
    print(
        f"perf-smoke[accuracy]: {len(GRID_ITERATIONS)} apps x 3 predictors, "
        f"num_procs={NUM_PROCS}, depth={DEPTH}"
    )
    print(f"  per-message oracle: {reference:7.2f}s")
    print(f"  vectorized:         {vectorized:7.2f}s")
    print(f"  speedup:            {speedup:7.2f}x (threshold {THRESHOLD:.1f}x)")
    if speedup < THRESHOLD:
        print("perf-smoke[accuracy]: FAIL — vectorized slower than the oracle")
        return 1
    print("perf-smoke[accuracy]: OK")
    return 0


def timing_gate() -> int:
    from repro.apps.registry import make_app
    from repro.common.config import SystemConfig
    from repro.sim.machine import Machine, MachineMode
    from tests.oracles import ReferenceMachine

    modes = {m.value: m for m in MachineMode}
    config = SystemConfig(num_nodes=NUM_PROCS)
    workloads = {
        app: make_app(
            app, num_procs=NUM_PROCS, iterations=iterations, seed=1999
        ).build()
        for app, iterations in TIMING_GRID.items()
    }
    sides = {"reference": ReferenceMachine, "product": Machine}
    cells: dict[str, dict] = {}
    ref_cells: dict[str, float] = {}
    totals = dict.fromkeys(sides, 0.0)
    identical = True
    print(
        f"perf-smoke[timing]: figure9 slice — {len(TIMING_GRID)} apps x "
        f"{{{', '.join(TIMING_MODES)}}}, num_procs={NUM_PROCS}, "
        f"iterations={set(TIMING_GRID.values()).pop()}"
    )
    for app, workload in workloads.items():
        for mode_name in TIMING_MODES:
            mode = modes[mode_name]
            best = dict.fromkeys(sides, float("inf"))
            results: dict[str, object] = {}
            for _attempt in range(TIMING_ATTEMPTS):
                # Interleave both sides within each attempt so runner
                # speed drift hits them equally.
                for side, machine_cls in sides.items():
                    machine = machine_cls(workload, config=config, mode=mode)
                    started = time.perf_counter()
                    results[side] = machine.run()
                    best[side] = min(best[side], time.perf_counter() - started)
            same = dataclasses.asdict(results["product"]) == dataclasses.asdict(
                results["reference"]
            )
            identical = identical and same
            cell = f"{app}/{mode_name}"
            speedup = best["reference"] / best["product"] if best["product"] else 0.0
            ref_cells[cell] = round(best["reference"], 4)
            cells[cell] = {
                "seconds": round(best["product"], 4),
                "speedup": round(speedup, 2),
                "run_result_identical": same,
            }
            for side in sides:
                totals[side] += best[side]
            print(
                f"  {app:6s} {mode_name:8s} "
                f"reference={best['reference']:6.3f}s "
                f"product={best['product']:6.3f}s ({speedup:5.2f}x) "
                f"identical={same}"
            )
    speedup = totals["reference"] / totals["product"] if totals["product"] else 0.0
    print(
        f"  total: reference={totals['reference']:6.3f}s "
        f"product={totals['product']:6.3f}s ({speedup:.2f}x, "
        f"threshold {TIMING_THRESHOLD:.1f}x)"
    )

    bench = {
        "schema": BENCH_SCHEMA,
        "benchmark": "figure9-slice timing simulator vs reference oracle",
        "num_procs": NUM_PROCS,
        "iterations": dict(TIMING_GRID),
        "modes": list(TIMING_MODES),
        "attempts": TIMING_ATTEMPTS,
        "reference": {
            "cells_s": ref_cells,
            "total_s": round(totals["reference"], 4),
        },
        "product": {
            "cells": cells,
            "total_s": round(totals["product"], 4),
            "speedup": round(speedup, 2),
            "threshold": TIMING_THRESHOLD,
        },
    }
    record = json.dumps(bench, indent=2)
    BENCH_PATH.write_text(record + "\n")
    # Emit the record itself, so a local run and the CI log show the
    # same committed benchmark claim without a separate `cat` step.
    print(f"  wrote {BENCH_PATH.name}:")
    print(record)

    if not identical:
        print("perf-smoke[timing]: FAIL — product and oracle disagree on RunResult")
        return 1
    if speedup < TIMING_THRESHOLD:
        print("perf-smoke[timing]: FAIL — timing simulator slower than the oracle")
        return 1
    print("perf-smoke[timing]: OK")
    return 0


def main() -> int:
    status = accuracy_gate()
    print()
    status |= timing_gate()
    return status


if __name__ == "__main__":
    sys.exit(main())
