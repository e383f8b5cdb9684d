"""Parallel sweeps beyond the paper's grids, with result caching.

The paper evaluates history depths 1, 2, and 4 (Figure 8).  This demo
declares a *denser* depth sweep over three applications as a
``SweepSpec``, fans it out over four worker processes, then re-runs the
same grid to show the content-addressed cache satisfying every point
without recomputation.  The equivalent command line is::

    repro-paper sweep --kind accuracy --axis app=em3d,moldyn,ocean \\
        --axis depth=1,2,3,4,6,8 --set iterations=10 --jobs 4

Run with::

    python examples/parallel_sweep.py
"""

import tempfile
import time

from repro.harness import ParallelRunner, ResultStore, SweepSpec

APPS = ("em3d", "moldyn", "ocean")
DEPTHS = (1, 2, 3, 4, 6, 8)


def build_spec() -> SweepSpec:
    return SweepSpec(
        kind="accuracy",
        axes={"app": APPS, "depth": DEPTHS},
        base={"iterations": 10, "predictors": ("MSP", "VMSP")},
    )


def run_once(label: str, runner: ParallelRunner):
    started = time.perf_counter()
    with runner:
        result = runner.run(build_spec())
    elapsed = time.perf_counter() - started
    report = result.report
    print(
        f"  {label:<22s} {elapsed:6.1f}s  "
        f"({report.executed} executed, {report.cached} cached, "
        f"jobs={report.jobs})"
    )
    return result


def main() -> None:
    print(f"== Sweeping {len(APPS)} apps x {len(DEPTHS)} depths ==")
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as cache_dir:
        store = ResultStore(cache_dir)
        serial = run_once("serial, cold", ParallelRunner(jobs=1))
        parallel = run_once("4 workers, cold cache", ParallelRunner(jobs=4, store=store))
        cached = run_once("4 workers, warm cache", ParallelRunner(jobs=4, store=store))
        assert serial.values == parallel.values == cached.values, (
            "deterministic sweeps must agree bit-for-bit"
        )
        assert cached.report.executed == 0

    print()
    print("== MSP vs VMSP accuracy by history depth (%) ==")
    header = f"  {'app':<10s}" + "".join(f"  d={d:<9d}" for d in DEPTHS)
    print(header + "   (MSP/VMSP)")
    for app in APPS:
        cells = []
        for depth in DEPTHS:
            runs = parallel.value(app=app, depth=depth)["runs"]
            cells.append(
                f"  {100 * runs['MSP']['accuracy']:4.1f}/"
                f"{100 * runs['VMSP']['accuracy']:4.1f}"
            )
        print(f"  {app:<10s}" + "".join(cells))


if __name__ == "__main__":
    main()
