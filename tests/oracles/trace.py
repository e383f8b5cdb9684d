"""The previous-occurrence join as dense groups (reference oracle).

Scoring a two-level predictor reduces to a join: each position's
pattern-table entry is the token at the latest earlier position with the
same (block, history) key.  This is the join as it was before
:func:`repro.trace.vectorized._table_join` packed each history into one
int64 key: the key columns are re-densified with ``np.unique`` after
every combine, and a separate stable argsort finds previous
occurrences.  ``tests/trace/test_table_join.py`` checks the packed join
against it.
"""

from __future__ import annotations

import numpy as np


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


def _previous_occurrence(groups: np.ndarray) -> np.ndarray:
    """For each position, the latest earlier position sharing its group.

    Returns -1 where no earlier occurrence exists.  One stable argsort:
    equal group ids end up adjacent in index order, so each element's
    predecessor in the sorted run is its previous occurrence.
    """
    n = groups.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    same = sorted_groups[1:] == sorted_groups[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _segment_positions(segment_ids: np.ndarray) -> np.ndarray:
    """0-based position of each element within its contiguous segment."""
    n = segment_ids.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(
        ([0], np.flatnonzero(segment_ids[1:] != segment_ids[:-1]) + 1)
    )
    lengths = np.diff(np.concatenate((starts, [n])))
    return np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)


def _segment_count(segment_ids: np.ndarray) -> int:
    n = segment_ids.shape[0]
    if n == 0:
        return 0
    return 1 + int((segment_ids[1:] != segment_ids[:-1]).sum())


def table_join_reference(
    blocks: np.ndarray, tokens: np.ndarray, depth: int
) -> tuple[np.ndarray, int, int]:
    """The previous-occurrence join behind two-level scoring.

    Returns ``(entry_source, pattern_entries, allocated_blocks)`` where
    ``entry_source[i]`` is the position whose token is the pattern-table
    entry consulted at position ``i`` (-1 when the history is still
    short or the table has no entry — both UNPREDICTED).  Positions with
    fewer than ``depth`` predecessors in their block neither consult nor
    populate the table, mirroring ``DirectoryPredictor._score/_learn``.
    """
    n = tokens.shape[0]
    entry_source = np.full(n, -1, dtype=np.int64)
    positions = _segment_positions(blocks)
    valid = np.flatnonzero(positions >= depth)
    pattern_entries = 0
    if valid.size:
        columns = [blocks[valid]]
        columns.extend(tokens[valid - k] for k in range(1, depth + 1))
        groups = _dense_groups(*columns)
        pattern_entries = int(groups.max()) + 1
        prev = _previous_occurrence(groups)
        found = prev >= 0
        entry_source[valid[found]] = valid[prev[found]]
    return entry_source, pattern_entries, _segment_count(blocks)
