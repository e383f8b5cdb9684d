"""Stateful property test for the speculation engine's bookkeeping.

A Hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.speculation.engine.SpeculationEngine` through arbitrary
interleavings of the calls the home directory makes — request
observation, SWI recalls, speculative-send recording, reference-bit
feedback, and the migratory-grant lifecycle — mirroring every step
against a trivially correct model.  After every rule the ledger
invariants Table 5 depends on must hold:

* ``fr_sent == fr_used + fr_missed + fr_raced + fr_outstanding`` and
  the same for SWI — every speculative copy is eventually accounted
  for exactly once (``race_dropped`` is the sum of both origins' raced
  copies);
* ``_pending_swi`` and ``_pending_migratory`` never leak resolved
  entries: each key present is exactly one awaiting-verdict entry the
  model also holds;
* ``wi_sent`` / ``wi_premature`` and the migratory counters track the
  model's.

The machine mirrors the home's contract: a speculative send is only
recorded for a (block, target) without an outstanding copy — the
directory's ``grant_speculative_copy`` enforces exactly that gate in
the real system.

A shadow :class:`~tests.oracles.speculation.ReferenceSpeculationEngine`
receives every call in lock-step.  Its VMSP learns through the scoring,
Message-boxed ``observe`` path while the product's learns without
scoring, so the shadow pins the product's learning: the FR/SWI targets
each call returns, the :class:`SpeculationStats`, and the predictor's
pattern, history, confidence and open-run tables must all be equal.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.types import MessageKind
from repro.speculation.engine import SpeculationEngine
from tests.oracles.speculation import ReferenceSpeculationEngine
from tests.strategies import STANDARD_SETTINGS

pytestmark = pytest.mark.property

#: Small universes keep collisions (re-reads, re-grants, same-block
#: recalls) frequent instead of vanishingly rare.
BLOCKS = st.integers(min_value=0, max_value=3)
NODES = st.integers(min_value=0, max_value=3)
WRITE_KINDS = st.sampled_from([MessageKind.WRITE, MessageKind.UPGRADE])


class EngineMachine(RuleBasedStateMachine):
    engine_cls = SpeculationEngine

    def __init__(self) -> None:
        super().__init__()
        self.engine = self.engine_cls(
            home=0,
            swi_enabled=True,
            migratory_enabled=True,
        )
        self.shadow = ReferenceSpeculationEngine(
            home=0,
            swi_enabled=True,
            migratory_enabled=True,
        )
        # The model ledger.
        self.outstanding: dict[tuple[int, int], str] = {}
        self.sent = {"fr": 0, "swi": 0}
        self.used = {"fr": 0, "swi": 0}
        self.missed = {"fr": 0, "swi": 0}
        self.raced = {"fr": 0, "swi": 0}
        self.pending_swi: dict[int, int] = {}
        self.pending_mig: dict[int, int] = {}
        self.wi_sent = 0
        self.wi_premature = 0
        self.mig_grants = 0
        self.mig_saves = 0
        self.mig_demotions = 0

    # ------------------------------------------------------------------
    # model helpers
    # ------------------------------------------------------------------
    def _model_resolve_swi(self, block: int, requester: int) -> None:
        writer = self.pending_swi.pop(block, None)
        if writer is not None and requester == writer:
            self.wi_premature += 1

    def _model_record(self, block: int, target: int, origin: str) -> None:
        """Mirror the home: only send where no copy is outstanding."""
        if (block, target) in self.outstanding:
            return
        self.engine.record_spec_sent(block, target, origin)
        self.shadow.record_spec_sent(block, target, origin)
        self.outstanding[(block, target)] = origin
        self.sent[origin] += 1

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(block=BLOCKS, reader=NODES)
    def observe_read(self, block: int, reader: int) -> None:
        self._model_resolve_swi(block, reader)
        targets = self.engine.observe_read(block, reader)
        assert targets == self.shadow.observe_read(block, reader)
        assert reader not in targets  # never pushes to the requester
        for target in sorted(targets):
            self._model_record(block, target, "fr")

    @rule(block=BLOCKS, kind=WRITE_KINDS, writer=NODES)
    def observe_write(self, block: int, kind, writer: int) -> None:
        self._model_resolve_swi(block, writer)
        self.engine.observe_write(block, kind, writer)
        self.shadow.observe_write(block, kind, writer)

    @rule(block=BLOCKS, writer=NODES)
    def swi_recall_completed(self, block: int, writer: int) -> None:
        targets = self.engine.swi_invalidated(block, writer)
        assert targets == self.shadow.swi_invalidated(block, writer)
        self.wi_sent += 1
        self.pending_swi[block] = writer
        for target in sorted(targets):
            self._model_record(block, target, "swi")

    @rule(block=BLOCKS, node=NODES, used=st.booleans(), raced=st.booleans())
    def feedback(self, block: int, node: int, used: bool, raced: bool) -> None:
        origin = self.outstanding.pop((block, node), None)
        self.engine.spec_feedback(block, node, used=used, raced=raced)
        self.shadow.spec_feedback(block, node, used=used, raced=raced)
        if origin is None:
            return  # no outstanding copy: the engine ignores the verdict
        if raced:
            self.raced[origin] += 1
        elif used:
            self.used[origin] += 1
            # A consumed copy confirms any pending SWI recall.
            self.pending_swi.pop(block, None)
        else:
            self.missed[origin] += 1

    @rule(block=BLOCKS, reader=NODES)
    def migratory_grant(self, block: int, reader: int) -> None:
        self.engine.record_migratory_grant(block, reader)
        self.shadow.record_migratory_grant(block, reader)
        self.pending_mig[block] = reader
        self.mig_grants += 1

    @rule(block=BLOCKS, writer=NODES)
    def migratory_written(self, block: int, writer: int) -> None:
        expected = self.pending_mig.get(block)
        self.engine.migratory_written(block, writer)
        self.shadow.migratory_written(block, writer)
        if expected == writer:
            del self.pending_mig[block]
            self.mig_saves += 1
            # The engine observes the speculatively executed upgrade
            # itself, which resolves any pending SWI verdict.
            self._model_resolve_swi(block, writer)

    @rule(block=BLOCKS, owner=NODES)
    def migratory_recalled(self, block: int, owner: int) -> None:
        expected = self.pending_mig.get(block)
        self.engine.migratory_recalled(block, owner)
        self.shadow.migratory_recalled(block, owner)
        if expected == owner:
            del self.pending_mig[block]
            self.mig_demotions += 1

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def ledger_balances(self) -> None:
        stats = self.engine.stats
        context = self.engine._spec_context
        for origin, sent_stat, used_stat, missed_stat in (
            ("fr", stats.fr_sent, stats.fr_used, stats.fr_missed),
            ("swi", stats.swi_sent, stats.swi_used, stats.swi_missed),
        ):
            outstanding = sum(
                1 for ctx in context.values() if ctx[0] == origin
            )
            assert sent_stat == self.sent[origin]
            assert used_stat == self.used[origin]
            assert missed_stat == self.missed[origin]
            # The issue's conservation law: every sent copy is used,
            # missed, race-dropped, or still outstanding.
            assert sent_stat == (
                used_stat + missed_stat + self.raced[origin] + outstanding
            )
        assert stats.race_dropped == self.raced["fr"] + self.raced["swi"]

    @invariant()
    def outstanding_context_matches_model(self) -> None:
        context = self.engine._spec_context
        assert set(context) == set(self.outstanding)
        for key, (origin, _history, _predicted) in context.items():
            assert origin == self.outstanding[key]

    @invariant()
    def pending_swi_never_leaks(self) -> None:
        pending = self.engine._pending_swi
        assert set(pending) == set(self.pending_swi)
        for block, entry in pending.items():
            assert entry.writer == self.pending_swi[block]
        assert self.engine.stats.wi_sent == self.wi_sent
        assert self.engine.stats.wi_premature == self.wi_premature

    @invariant()
    def pending_migratory_never_leaks(self) -> None:
        assert dict(self.engine._pending_migratory) == self.pending_mig
        stats = self.engine.stats
        assert stats.migratory_grants == self.mig_grants
        assert stats.migratory_upgrades_saved == self.mig_saves
        assert stats.migratory_demotions == self.mig_demotions


    @invariant()
    def shadow_learns_the_same(self) -> None:
        assert self.engine.stats == self.shadow.stats
        product, reference = self.engine.predictor, self.shadow.predictor
        assert product._patterns == reference._patterns
        assert product._history == reference._history
        assert product._confidence == reference._confidence
        assert product._runs == reference._runs


class FastPathEngineMachine(EngineMachine):
    engine_cls = SpeculationEngine


class ReferencePathEngineMachine(EngineMachine):
    """The oracle's Message-boxed observe path keeps the same ledger."""

    engine_cls = ReferenceSpeculationEngine


FastPathEngineMachine.TestCase.settings = STANDARD_SETTINGS
ReferencePathEngineMachine.TestCase.settings = STANDARD_SETTINGS
TestSpeculationEngineStatefulFast = FastPathEngineMachine.TestCase
TestSpeculationEngineStatefulReference = ReferencePathEngineMachine.TestCase
