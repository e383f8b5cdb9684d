"""The columnar message-trace pipeline.

Trace *generation* (Python-loop protocol emulation) is decoupled from
trace *consumption*: :meth:`~repro.protocol.emulator.ProtocolEmulator.compile`
produces a :class:`CompiledTrace` — the full home-directory message
stream as parallel numpy columns — once per workload, and the
vectorized evaluators score MSP, VMSP, and Cosmos over it with batched
array passes that are bit-identical to the per-message reference
predictors.  See ``docs/performance.md``.
"""

from repro.trace.cache import (
    TRACE_KIND,
    compile_app_trace,
    configure_trace_cache,
    configured_trace_dir,
    snapshot_counters,
    trace_point,
    trace_store,
)
from repro.common.types import KIND_CODES, KIND_TO_CODE
from repro.trace.compiled import CompiledTrace
from repro.trace.vectorized import (
    TraceEvaluation,
    evaluate_trace,
    evaluate_trace_reference,
)

__all__ = [
    "CompiledTrace",
    "KIND_CODES",
    "KIND_TO_CODE",
    "TRACE_KIND",
    "TraceEvaluation",
    "compile_app_trace",
    "configure_trace_cache",
    "configured_trace_dir",
    "evaluate_trace",
    "evaluate_trace_reference",
    "snapshot_counters",
    "trace_point",
    "trace_store",
]
