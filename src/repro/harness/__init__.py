"""Parallel experiment harness: declarative sweeps, workers, caching.

Declare an experiment as a :class:`SweepSpec` grid, execute it with a
:class:`ParallelRunner` (its pool is one background thread, or worker
processes), and let a :class:`ResultStore` reuse every point already
computed::

    from repro.harness import ParallelRunner, ResultStore, SweepSpec

    spec = SweepSpec(
        kind="accuracy",
        axes={"app": ("em3d", "moldyn"), "depth": (1, 2, 4)},
        base={"iterations": 8},
    )
    with ParallelRunner(jobs=4, store=ResultStore(".repro-cache")) as runner:
        result = runner.run(spec)
    best = result.value(app="em3d", depth=4)["runs"]["VMSP"]["accuracy"]

Every point is bit-deterministic (all randomness is seeded through
``DeterministicRng``), so serial, parallel, and cached executions are
interchangeable.  A :class:`ClaimedRunner` is a ``ParallelRunner`` that
divides a grid with other workers sharing the cache, and
:func:`open_runner` builds either one from the options the CLI and the
service share.  See ``docs/harness.md``.
"""

from repro.harness.claims import (
    DEFAULT_CLAIM_TTL_S,
    ClaimBoard,
    ClaimedRunner,
    ClaimInfo,
    open_runner,
)
from repro.harness.hot_tier import (
    DEFAULT_HOT_BYTES,
    DEFAULT_HOT_ENTRIES,
    HotTier,
)
from repro.harness.runner import (
    ParallelRunner,
    SweepError,
    SweepReport,
    SweepResult,
    resolve_jobs,
)
from repro.harness.runners import (
    PointOutcome,
    execute_point,
    execute_point_instrumented,
    get_runner,
    register_runner,
    runner_kinds,
)
from repro.harness.spec import SweepPoint, SweepSpec
from repro.harness.store import (
    ENTRY_VERSION,
    MISS,
    SCHEMA_VERSION,
    ResultStore,
    StoredEntry,
)

__all__ = [
    "ClaimBoard",
    "ClaimInfo",
    "ClaimedRunner",
    "DEFAULT_CLAIM_TTL_S",
    "DEFAULT_HOT_BYTES",
    "DEFAULT_HOT_ENTRIES",
    "ENTRY_VERSION",
    "HotTier",
    "MISS",
    "ParallelRunner",
    "PointOutcome",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoredEntry",
    "SweepError",
    "SweepPoint",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "execute_point",
    "execute_point_instrumented",
    "get_runner",
    "open_runner",
    "register_runner",
    "resolve_jobs",
    "runner_kinds",
]
