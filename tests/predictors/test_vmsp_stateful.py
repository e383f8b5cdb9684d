"""Stateful/property tests for VMSP's open-run and flush bookkeeping.

A VMSP folds each read sequence into a reader bit-vector committed by
the write that closes it; the speculation engine additionally injects
*speculative* reads (pushed copies) into the open run without scoring
them.  The state machine below drives arbitrary interleavings of real
reads, writes/upgrades, speculative reads, and flushes against a
trivially correct model of the open runs, checking that

* runs close *exactly* on writes/upgrades (and flush) — nothing else
  empties or reopens them;
* the vector committed at close time is precisely the modeled reader
  set, keyed by the pre-close history;
* ``observe_speculative_read`` joins the open run without touching
  scoring stats, the history, or the committed pattern entries — in
  particular it can never mutate a vector a closed run already
  committed;
* ``flush`` closes every open run and leaves all runs empty.

Separate property tests pin ``remove_entry``'s guard: an entry is only
removed while the caller's ``expected`` token still matches — the
misspeculation-feedback race the speculation engine relies on
(Section 4.2).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.types import Message, MessageKind
from repro.predictors.base import ReadVector
from repro.predictors.vmsp import Vmsp
from tests.strategies import STANDARD_SETTINGS

pytestmark = pytest.mark.property

BLOCKS = st.integers(min_value=0, max_value=2)
NODES = st.integers(min_value=0, max_value=4)
WRITE_KINDS = st.sampled_from([MessageKind.WRITE, MessageKind.UPGRADE])


class VmspRunMachine(RuleBasedStateMachine):
    depth = 1

    def __init__(self) -> None:
        super().__init__()
        self.vmsp = Vmsp(depth=self.depth)
        self.runs: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tables_snapshot(self):
        return (
            {b: dict(t) for b, t in self.vmsp._patterns.items()},
            dict(self.vmsp._history),
            (
                self.vmsp.stats.observed,
                self.vmsp.stats.predicted,
                self.vmsp.stats.correct,
                self.vmsp.stats.ignored,
            ),
        )

    def _check_close(self, block: int, pre_history, pre_run: set[int]) -> None:
        """After a close, the committed vector is the modeled run."""
        assert self.vmsp.open_run(block) == frozenset()
        if pre_run and len(pre_history) >= self.depth:
            committed = self.vmsp._patterns.get(block, {}).get(pre_history)
            assert committed == ReadVector(frozenset(pre_run))

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(block=BLOCKS, node=NODES)
    def read(self, block: int, node: int) -> None:
        self.vmsp.observe(Message(kind=MessageKind.READ, node=node, block=block))
        self.runs.setdefault(block, set()).add(node)

    @rule(block=BLOCKS, node=NODES)
    def speculative_read(self, block: int, node: int) -> None:
        """Joins the run; never scores, learns, or reopens anything."""
        before = self._tables_snapshot()
        self.vmsp.observe_speculative_read(block, node)
        assert self._tables_snapshot() == before
        self.runs.setdefault(block, set()).add(node)

    @rule(block=BLOCKS, kind=WRITE_KINDS, node=NODES)
    def write_closes_run(self, block: int, kind, node: int) -> None:
        pre_history = self.vmsp.current_history(block)
        pre_run = set(self.runs.get(block, set()))
        self.vmsp.observe(Message(kind=kind, node=node, block=block))
        self.runs[block] = set()
        assert self.vmsp.open_run(block) == frozenset()
        if pre_run and len(pre_history) >= self.depth:
            vector = ReadVector(frozenset(pre_run))
            committed = self.vmsp._patterns.get(block, {}).get(pre_history)
            # The closing write itself learns immediately after the
            # vector commits; when the post-commit history slides back
            # onto the same key (the vector repeats the history tail),
            # the write token legitimately overwrites the vector.
            post_commit = (pre_history + (vector,))[-self.depth :]
            expected = (kind, node) if post_commit == pre_history else vector
            assert committed == expected

    @rule()
    def flush_closes_every_run(self) -> None:
        pre = {
            block: (self.vmsp.current_history(block), set(run))
            for block, run in self.runs.items()
        }
        self.vmsp.flush()
        for block, (history, run) in pre.items():
            self.runs[block] = set()
            self._check_close(block, history, run)
        for block in self.runs:
            assert not self.vmsp.open_run(block)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def open_runs_match_model(self) -> None:
        for block in range(3):
            expected = frozenset(self.runs.get(block, set()))
            assert self.vmsp.open_run(block) == expected


class VmspRunMachineDepth1(VmspRunMachine):
    depth = 1


class VmspRunMachineDepth2(VmspRunMachine):
    depth = 2


VmspRunMachineDepth1.TestCase.settings = STANDARD_SETTINGS
VmspRunMachineDepth2.TestCase.settings = STANDARD_SETTINGS
TestVmspOpenRunsDepth1 = VmspRunMachineDepth1.TestCase
TestVmspOpenRunsDepth2 = VmspRunMachineDepth2.TestCase


# ----------------------------------------------------------------------
# observe_speculative_read vs committed vectors (the named regression)
# ----------------------------------------------------------------------
def test_speculative_read_never_reopens_a_closed_run():
    """A pushed copy after a close starts a *new* run; the committed
    vector of the closed run is immutable."""
    vmsp = Vmsp(depth=1)
    block = 7
    # Train one full sequence so the close lands in the pattern table.
    for node in (1, 2):
        vmsp.observe(Message(kind=MessageKind.READ, node=node, block=block))
    vmsp.observe(Message(kind=MessageKind.WRITE, node=0, block=block))
    for node in (1, 2):
        vmsp.observe(Message(kind=MessageKind.READ, node=node, block=block))
    history = vmsp.current_history(block)
    vmsp.observe(Message(kind=MessageKind.WRITE, node=0, block=block))
    committed = vmsp._patterns[block][history]
    assert committed == ReadVector(frozenset({1, 2}))

    vmsp.observe_speculative_read(block, 4)
    assert vmsp._patterns[block][history] == ReadVector(frozenset({1, 2}))
    assert vmsp.open_run(block) == frozenset({4})


# ----------------------------------------------------------------------
# remove_entry: only removes while `expected` still matches
# ----------------------------------------------------------------------
TOKENS = st.one_of(
    st.tuples(WRITE_KINDS, NODES),
    st.frozensets(NODES, min_size=1, max_size=3).map(ReadVector),
)


@given(
    learned=TOKENS,
    expected=TOKENS,
    history_token=TOKENS,
)
@STANDARD_SETTINGS
def test_remove_entry_guard(learned, expected, history_token):
    vmsp = Vmsp(depth=1)
    block = 3
    history = (history_token,)
    vmsp._history[block] = history
    vmsp._learn(block, history, learned)
    assert vmsp._patterns[block][history] == learned

    removed = vmsp.remove_entry(block, history, expected=expected)
    if expected == learned:
        assert removed
        assert history not in vmsp._patterns[block]
        # A second removal finds nothing.
        assert not vmsp.remove_entry(block, history, expected=expected)
    else:
        # The entry was already replaced (or never was `expected`):
        # removal must not destroy the newer learning.
        assert not removed
        assert vmsp._patterns[block][history] == learned


def test_remove_entry_without_expected_always_removes():
    vmsp = Vmsp(depth=1)
    block, history = 1, ((MessageKind.WRITE, 0),)
    assert not vmsp.remove_entry(block, history)  # nothing learned yet
    vmsp._history[block] = history
    vmsp._learn(block, history, (MessageKind.UPGRADE, 2))
    assert vmsp.remove_entry(block, history)
    assert not vmsp.remove_entry(block, history)
