"""Vectorized predictor evaluation over a :class:`CompiledTrace`.

The per-message reference predictors (:mod:`repro.predictors`) walk the
trace one Python object at a time; this module computes the *identical*
accuracy counters with batched numpy passes.  The key observation is
that a two-level predictor's pattern table always holds "the token that
followed this history the last time it occurred", so scoring reduces to
a previous-occurrence join:

1. encode each message (or VMSP event) as a non-negative int token,
2. pack each position's history key — its block and the ``depth``
   preceding tokens of the same block — into one int64,
3. for every position, find the latest earlier position with the same
   key (one stable argsort); the token observed *there* is exactly the
   pattern-table entry consulted *here*,
4. compare predicted vs observed tokens in bulk.

VMSP adds an event-compilation step (read runs fold into reader
bit-vectors, exactly as ``Vmsp._close_run`` does), after which the same
previous-occurrence join applies to the event stream, and individual
reads are scored against their run's predicted vector by bitmask tests.

The contract with the reference implementation is **bit-identical
accuracy counters** (observed / predicted / correct / ignored) and
pattern-table entry counts for every trace the protocol emulator can
produce; ``tests/trace/test_vectorized.py`` enforces it across all
seven applications.  :func:`evaluate_trace_reference` runs the actual
per-message predictors over the decoded trace and is both the fallback
for configurations the vectorized path does not cover (VMSP beyond 64
nodes) and the golden baseline in those tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors import PREDICTOR_CLASSES
from repro.predictors.base import PredictionStats
from repro.common.types import KIND_TO_CODE, MessageKind
from repro.trace.compiled import CompiledTrace

#: Column code of READ (the one request kind VMSP folds into vectors).
_READ_CODE = KIND_TO_CODE[MessageKind.READ]

#: Widest node id a uint64 reader bitmask can represent.
_MAX_VECTOR_NODE = 63


@dataclass(frozen=True, slots=True)
class TraceEvaluation:
    """Accuracy counters and table shape from one trace pass."""

    predictor: str
    depth: int
    stats: PredictionStats
    #: Total pattern-table entries across all blocks (after flush).
    pattern_entries: int
    #: Blocks that began training (appear in the history table).
    allocated_blocks: int

    @property
    def average_pte(self) -> float:
        """Mean pattern-table entries per allocated block (Table 4)."""
        if not self.allocated_blocks:
            return 0.0
        return self.pattern_entries / self.allocated_blocks


# ----------------------------------------------------------------------
# primitive passes
# ----------------------------------------------------------------------
def _dense_groups(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Dense int64 ids for the row tuples formed by parallel columns."""
    _, group = np.unique(np.asarray(first), return_inverse=True)
    group = group.astype(np.int64, copy=False)
    for column in rest:
        _, inverse = np.unique(np.asarray(column), return_inverse=True)
        if inverse.size == 0:
            continue
        # Re-densify after each combine so the product never overflows.
        group = group * np.int64(inverse.max() + 1) + inverse.astype(np.int64)
        _, group = np.unique(group, return_inverse=True)
        group = group.astype(np.int64, copy=False)
    return group


def _segments(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's contiguous-segment id (0, 1, ...) and its 0-based
    position within that segment."""
    n = blocks.shape[0]
    boundary = np.empty(n, dtype=bool)
    boundary[:1] = False
    np.not_equal(blocks[1:], blocks[:-1], out=boundary[1:])
    segment = np.cumsum(boundary)
    starts = np.concatenate(([0], np.flatnonzero(boundary)))
    return segment, np.arange(n, dtype=np.int64) - starts[segment]


#: A packed history key is re-densified before it could reach this
#: bound, so ``key * width + token`` never overflows int64.
_KEY_LIMIT = 1 << 62


def _table_join(
    blocks: np.ndarray, tokens: np.ndarray, depth: int
) -> tuple[np.ndarray, int, int]:
    """The previous-occurrence join behind two-level scoring.

    ``tokens`` are non-negative ints.  Returns ``(entry_source,
    pattern_entries, allocated_blocks)`` where ``entry_source[i]`` is
    the position whose token is the pattern-table entry consulted at
    position ``i`` (-1 when the history is still short or the table has
    no entry — both UNPREDICTED).  Positions with fewer than ``depth``
    predecessors in their block neither consult nor populate the table,
    mirroring ``DirectoryPredictor._score/_learn``.

    Each such position's key packs its block segment and its ``depth``
    preceding tokens into one int64, base ``tokens.max() + 1``; one
    stable argsort then puts equal keys next to each other in index
    order, so each key's sorted predecessor is its previous occurrence.
    """
    n = tokens.shape[0]
    entry_source = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return entry_source, 0, 0
    segment, positions = _segments(blocks)
    valid = np.flatnonzero(positions >= depth)
    pattern_entries = 0
    if valid.size:
        width = int(tokens.max()) + 1
        key = segment[valid]
        key_bound = int(segment[-1]) + 1  # every key is below this
        for k in range(1, depth + 1):
            if key_bound * width > _KEY_LIMIT:
                # re-densify so the packed key cannot overflow
                _, key = np.unique(key, return_inverse=True)
                key = key.astype(np.int64, copy=False)
                key_bound = int(key.max()) + 1
            key = key * width + tokens[valid - k]
            key_bound *= width
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        same = sorted_keys[1:] == sorted_keys[:-1]
        entry_source[valid[order[1:][same]]] = valid[order[:-1][same]]
        pattern_entries = int(valid.size - same.sum())
    return entry_source, pattern_entries, int(segment[-1]) + 1


# ----------------------------------------------------------------------
# flat evaluators (Cosmos, MSP)
# ----------------------------------------------------------------------
def _evaluate_flat(
    name: str,
    depth: int,
    blocks: np.ndarray,
    kinds: np.ndarray,
    nodes: np.ndarray,
    ignored: int,
) -> TraceEvaluation:
    tokens = kinds.astype(np.int64) * (int(nodes.max(initial=0)) + 1) + nodes
    entry_source, pattern_entries, allocated = _table_join(blocks, tokens, depth)
    scored = np.flatnonzero(entry_source >= 0)
    correct = int((tokens[entry_source[scored]] == tokens[scored]).sum())
    stats = PredictionStats(
        observed=int(tokens.shape[0]),
        predicted=int(scored.shape[0]),
        correct=correct,
        ignored=ignored,
    )
    return TraceEvaluation(
        predictor=name,
        depth=depth,
        stats=stats,
        pattern_entries=pattern_entries,
        allocated_blocks=allocated,
    )


def _evaluate_cosmos(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    return _evaluate_flat(
        "Cosmos", depth, trace.blocks, trace.kinds, trace.nodes, ignored=0
    )


def _evaluate_msp(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    requests = trace.request_mask()
    ignored = int(len(trace) - requests.sum())
    return _evaluate_flat(
        "MSP",
        depth,
        trace.blocks[requests],
        trace.kinds[requests],
        trace.nodes[requests],
        ignored=ignored,
    )


# ----------------------------------------------------------------------
# VMSP: event compilation + vector-aware read scoring
# ----------------------------------------------------------------------
def _evaluate_vmsp(trace: CompiledTrace, depth: int) -> TraceEvaluation:
    requests = trace.request_mask()
    ignored = int(len(trace) - requests.sum())
    blocks = trace.blocks[requests]
    kinds = trace.kinds[requests]
    nodes = trace.nodes[requests]
    observed = int(blocks.shape[0])
    if observed == 0:
        return TraceEvaluation(
            predictor="VMSP",
            depth=depth,
            stats=PredictionStats(ignored=ignored),
            pattern_entries=0,
            allocated_blocks=0,
        )
    if int(nodes.max()) > _MAX_VECTOR_NODE:
        # Reader bitmasks are uint64; wider systems take the reference
        # path (correct, just not vectorized).
        return evaluate_trace_reference(trace, "VMSP", depth)

    is_write = kinds != _READ_CODE
    # Per-block write ordinal: for writes, how many writes precede them
    # in their block (their ordinal); for reads, their run id.
    cumulative = np.cumsum(is_write.astype(np.int64))
    _, positions = _segments(blocks)
    segment_start = np.arange(blocks.shape[0], dtype=np.int64) - positions
    base = cumulative[segment_start] - is_write[segment_start]
    in_block = cumulative - base

    # --- write events: one per write/upgrade message -------------------
    write_index = np.flatnonzero(is_write)
    write_blocks = blocks[write_index]
    write_ordinal = in_block[write_index] - 1
    write_values = (
        kinds[write_index].astype(np.uint64) * np.uint64(_MAX_VECTOR_NODE + 1)
        + nodes[write_index].astype(np.uint64)
    )

    # --- vector events: one per read run ------------------------------
    read_index = np.flatnonzero(~is_write)
    read_blocks = blocks[read_index]
    read_runs = in_block[read_index]
    read_nodes = nodes[read_index]
    n_reads = int(read_index.shape[0])
    if n_reads:
        boundary = np.flatnonzero(
            (read_blocks[1:] != read_blocks[:-1])
            | (read_runs[1:] != read_runs[:-1])
        )
        run_starts = np.concatenate(([0], boundary + 1))
        run_lengths = np.diff(np.concatenate((run_starts, [n_reads])))
        masks = np.uint64(1) << read_nodes.astype(np.uint64)
        run_vectors = np.bitwise_or.reduceat(masks, run_starts)
        run_blocks = read_blocks[run_starts]
        run_ordinal = read_runs[run_starts]
        run_of_read = np.repeat(
            np.arange(run_starts.shape[0], dtype=np.int64), run_lengths
        )
    else:
        run_starts = np.empty(0, dtype=np.int64)
        run_vectors = np.empty(0, dtype=np.uint64)
        run_blocks = np.empty(0, dtype=np.int64)
        run_ordinal = np.empty(0, dtype=np.int64)
        run_of_read = np.empty(0, dtype=np.int64)
    n_runs = int(run_starts.shape[0])
    n_writes = int(write_index.shape[0])

    # --- the event stream ---------------------------------------------
    # Per block, the reference predictor's history evolves as:
    #   [V_r] W_r  [V_r+1] W_r+1 ... [V_trailing(flush)]
    # i.e. run r's vector commits immediately before write #r (or at
    # flush for a trailing run).  Sort key (block, ordinal, vector<write)
    # reproduces exactly that order.
    event_blocks = np.concatenate((write_blocks, run_blocks))
    event_ordinal = np.concatenate((write_ordinal, run_ordinal))
    event_tie = np.concatenate(
        (np.ones(n_writes, dtype=np.int8), np.zeros(n_runs, dtype=np.int8))
    )
    event_tag = np.concatenate(
        (np.zeros(n_writes, dtype=np.int8), np.ones(n_runs, dtype=np.int8))
    )
    event_value = np.concatenate((write_values, run_vectors))
    order = np.lexsort((event_tie, event_ordinal, event_blocks))
    event_blocks = event_blocks[order]
    event_tag = event_tag[order]
    event_value = event_value[order]
    position_of = np.empty(order.shape[0], dtype=np.int64)
    position_of[order] = np.arange(order.shape[0], dtype=np.int64)

    event_tokens = _dense_groups(event_tag, event_value)
    entry_source, pattern_entries, allocated = _table_join(
        event_blocks, event_tokens, depth
    )

    # --- score writes: ordinary two-level token comparison ------------
    write_events = position_of[:n_writes]
    write_entry = entry_source[write_events]
    write_scored = write_entry >= 0
    predicted_w = int(write_scored.sum())
    correct_w = int(
        (
            event_tokens[write_entry[write_scored]]
            == event_tokens[write_events[write_scored]]
        ).sum()
    )

    # --- score reads against their run's predicted vector -------------
    # Every read in run r is scored against the table entry its block's
    # history selected at run start — which is the entry the run's own
    # vector event sees, since nothing learns mid-run.
    run_events = position_of[n_writes:]
    run_entry = entry_source[run_events]
    read_entry = run_entry[run_of_read]
    read_predicted = read_entry >= 0
    predicted_r = int(read_predicted.sum())
    entry_is_vector = np.zeros(read_entry.shape[0], dtype=bool)
    in_vector = np.zeros(read_entry.shape[0], dtype=bool)
    scored = np.flatnonzero(read_predicted)
    if scored.size:
        sources = read_entry[scored]
        entry_is_vector[scored] = event_tag[sources] == 1
        vector_bits = (
            event_value[sources] >> read_nodes[scored].astype(np.uint64)
        ) & np.uint64(1)
        in_vector[scored] = vector_bits.astype(bool)
    # "node not in run": only a node's first read of its run can be
    # correct (the reference tracks the open run as a set).  Emulator
    # traces never repeat a reader within a run, but the check is part
    # of the scoring contract, so keep it exact.
    first_in_run = np.ones(n_reads, dtype=bool)
    if n_reads > 1:
        dup_order = np.lexsort((np.arange(n_reads), read_nodes, run_of_read))
        ordered_runs = run_of_read[dup_order]
        ordered_nodes = read_nodes[dup_order]
        duplicate = (ordered_runs[1:] == ordered_runs[:-1]) & (
            ordered_nodes[1:] == ordered_nodes[:-1]
        )
        first_in_run[dup_order[1:][duplicate]] = False
    correct_r = int((entry_is_vector & in_vector & first_in_run).sum())

    stats = PredictionStats(
        observed=observed,
        predicted=predicted_w + predicted_r,
        correct=correct_w + correct_r,
        ignored=ignored,
    )
    return TraceEvaluation(
        predictor="VMSP",
        depth=depth,
        stats=stats,
        pattern_entries=pattern_entries,
        allocated_blocks=allocated,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_EVALUATORS = {
    "Cosmos": _evaluate_cosmos,
    "MSP": _evaluate_msp,
    "VMSP": _evaluate_vmsp,
}


def evaluate_trace(
    trace: CompiledTrace, predictor: str, depth: int = 1
) -> TraceEvaluation:
    """Evaluate one predictor over a compiled trace, vectorized.

    Produces counters bit-identical to feeding the decoded message
    stream through the per-message reference predictor.
    """
    if depth < 1:
        raise ValueError("history depth must be >= 1")
    try:
        evaluator = _EVALUATORS[predictor]
    except KeyError:
        known = ", ".join(sorted(_EVALUATORS))
        raise ValueError(
            f"unknown predictor {predictor!r} (known: {known})"
        ) from None
    return evaluator(trace, depth)


def evaluate_trace_reference(
    trace: CompiledTrace, predictor: str, depth: int = 1
) -> TraceEvaluation:
    """The same evaluation through the per-message reference objects.

    This is the golden baseline the equivalence tests compare
    :func:`evaluate_trace` against, and the fallback for configurations
    the vectorized path does not cover.
    """
    instance = PREDICTOR_CLASSES[predictor](depth=depth)
    for message in trace.to_messages():
        instance.observe(message)
    flush = getattr(instance, "flush", None)
    if flush is not None:
        flush()
    allocated = instance.allocated_blocks()
    pattern_entries = sum(
        instance.pattern_entry_count(block) for block in allocated
    )
    return TraceEvaluation(
        predictor=predictor,
        depth=depth,
        stats=instance.stats,
        pattern_entries=pattern_entries,
        allocated_blocks=len(allocated),
    )
