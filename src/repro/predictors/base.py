"""Two-level predictor scaffolding shared by Cosmos, MSP, and VMSP.

The structure mirrors Yeh & Patt's PAp branch predictor as adapted by
the paper (Section 2.1): a per-block *history table* holds the most
recent ``depth`` tokens, and a per-block *pattern table* maps each
observed history to the token that followed it last time.  A prediction
is made whenever the pattern table holds an entry for the current
history; its correctness is scored against the message that actually
arrives.  This per-message accounting is exactly what Figure 7 and
Table 3 of the paper report:

* accuracy          = correct / predicted            (Figure 7/8)
* coverage          = predicted / observed           (Table 3, first %)
* correct fraction  = correct / observed             (Table 3, in parens)
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Union

from repro.common.types import BlockId, Message, MessageKind, NodeId


class Outcome(enum.Enum):
    """Per-message result of presenting a message to a predictor."""

    CORRECT = "correct"  # prediction existed and matched
    WRONG = "wrong"  # prediction existed and missed
    UNPREDICTED = "unpredicted"  # no pattern entry (still learning)
    IGNORED = "ignored"  # message outside the predictor's scope

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Outcome.{self.name}"


@dataclass(frozen=True, slots=True)
class ReadVector:
    """VMSP's compact encoding of a read sequence: the set of readers."""

    readers: frozenset[NodeId]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.readers

    def __len__(self) -> int:
        return len(self.readers)

    def __str__(self) -> str:
        inner = ",".join(f"P{r}" for r in sorted(self.readers))
        return f"<Read,{{{inner}}}>"


#: A pattern-table token: a (kind, node) request/message pair, or — for
#: VMSP only — a ReadVector standing for a whole read sequence.
Token = Union[tuple[MessageKind, NodeId], ReadVector]


@dataclass(slots=True)
class PredictionStats:
    """Aggregate per-message outcome counts."""

    observed: int = 0
    predicted: int = 0
    correct: int = 0
    ignored: int = 0

    def record(self, outcome: Outcome) -> None:
        if outcome is Outcome.IGNORED:
            self.ignored += 1
            return
        self.observed += 1
        if outcome is Outcome.UNPREDICTED:
            return
        self.predicted += 1
        if outcome is Outcome.CORRECT:
            self.correct += 1

    @property
    def wrong(self) -> int:
        return self.predicted - self.correct

    @property
    def accuracy(self) -> float:
        """Correct predictions over all predictions made (Figure 7)."""
        if self.predicted == 0:
            return 0.0
        return self.correct / self.predicted

    @property
    def coverage(self) -> float:
        """Messages predicted over messages observed (Table 3)."""
        if self.observed == 0:
            return 0.0
        return self.predicted / self.observed

    @property
    def correct_fraction(self) -> float:
        """Messages correctly predicted over observed (Table 3, parens)."""
        if self.observed == 0:
            return 0.0
        return self.correct / self.observed

    def merged_with(self, other: "PredictionStats") -> "PredictionStats":
        return PredictionStats(
            observed=self.observed + other.observed,
            predicted=self.predicted + other.predicted,
            correct=self.correct + other.correct,
            ignored=self.ignored + other.ignored,
        )


HistoryKey = tuple[Token, ...]


class DirectoryPredictor(abc.ABC):
    """Common two-level machinery over per-block history/pattern tables."""

    #: Paper name, e.g. "Cosmos"; set by subclasses.
    name: str = "abstract"

    #: Saturating per-entry speculation confidence bounds.
    CONFIDENCE_MAX = 3
    #: Jaccard similarity above which two read vectors count as the
    #: "same" pattern when updating confidence (appbt's alternating
    #: edge consumers overlap by exactly one third, and still speculate
    #: in the paper's Table 5; ocean's reduction singletons do not).
    VECTOR_SIMILARITY = 1 / 3

    def __init__(self, depth: int = 1) -> None:
        if depth < 1:
            raise ValueError("history depth must be >= 1")
        self.depth = depth
        self.stats = PredictionStats()
        self._history: dict[BlockId, HistoryKey] = {}
        self._patterns: dict[BlockId, dict[HistoryKey, Token]] = {}
        #: Per-entry speculation confidence.  Prediction *scoring* never
        #: consults this — it exists so the speculation engine does not
        #: keep pushing copies from entries that thrash (e.g. ocean's
        #: lock reduction, whose successor changes every iteration).
        self._confidence: dict[tuple[BlockId, HistoryKey], int] = {}

    # ------------------------------------------------------------------
    # the subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def observe(self, message: Message) -> Outcome:
        """Present one directory-arriving message; score and learn."""

    @classmethod
    @abc.abstractmethod
    def storage_profile(cls, num_nodes: int, depth: int) -> "StorageProfileT":
        """Bit costs of a history entry and a pattern-table entry."""

    # ------------------------------------------------------------------
    # shared two-level mechanics
    # ------------------------------------------------------------------
    def _observe_token(self, block: BlockId, token: Token) -> Outcome:
        """Score ``token`` against the block's prediction, then learn it."""
        history = self._history.get(block, ())
        outcome = self._score(block, history, token)
        self._learn(block, history, token)
        self._history[block] = (history + (token,))[-self.depth :]
        return outcome

    def _score(
        self, block: BlockId, history: HistoryKey, token: Token
    ) -> Outcome:
        if len(history) < self.depth:
            return Outcome.UNPREDICTED
        predicted = self._patterns.get(block, {}).get(history)
        if predicted is None:
            return Outcome.UNPREDICTED
        return Outcome.CORRECT if predicted == token else Outcome.WRONG

    def _learn(self, block: BlockId, history: HistoryKey, token: Token) -> None:
        if len(history) < self.depth:
            return
        table = self._patterns.get(block)
        if table is None:
            table = self._patterns[block] = {}
        key = (block, history)
        previous = table.get(history)
        if previous is None:
            self._confidence[key] = 1
        elif self._same_pattern(previous, token):
            self._confidence[key] = min(
                self.CONFIDENCE_MAX, self._confidence.get(key, 1) + 1
            )
        else:
            self._confidence[key] = max(0, self._confidence.get(key, 1) - 1)
        table[history] = token

    @classmethod
    def _same_pattern(cls, a: Token, b: Token) -> bool:
        """Whether a relearned token confirms the previous prediction."""
        if isinstance(a, ReadVector) and isinstance(b, ReadVector):
            union = a.readers | b.readers
            if not union:
                return True
            return len(a.readers & b.readers) / len(union) >= cls.VECTOR_SIMILARITY
        return a == b

    def confidence(self, block: BlockId, history: HistoryKey) -> int:
        """Speculation confidence of the entry keyed by ``history``."""
        return self._confidence.get((block, history), 0)

    # ------------------------------------------------------------------
    # introspection (used by speculation and the storage model)
    # ------------------------------------------------------------------
    def predicted_next(self, block: BlockId) -> Token | None:
        """The token predicted to arrive next for ``block``, if any."""
        history = self._history.get(block, ())
        if len(history) < self.depth:
            return None
        return self._patterns.get(block, {}).get(history)

    def current_history(self, block: BlockId) -> HistoryKey:
        return self._history.get(block, ())

    def remove_entry(
        self,
        block: BlockId,
        history: HistoryKey,
        expected: "Token | None" = None,
    ) -> bool:
        """Drop a mispredicted pattern entry (speculation feedback).

        Returns True when an entry was present and removed.  Section 4.2:
        "The MSP ... removes mispredicted request sequences from the
        pattern tables."

        ``expected`` guards against removing a *newer* prediction: the
        misspeculation verdict rides back on an invalidation, by which
        time ordinary learning may already have replaced the offending
        entry — removal then must not destroy the replacement.
        """
        table = self._patterns.get(block)
        if table is None:
            return False
        if expected is not None and table.get(history) != expected:
            return False
        return table.pop(history, None) is not None

    def pattern_entry_count(self, block: BlockId) -> int:
        return len(self._patterns.get(block, {}))

    def allocated_blocks(self) -> list[BlockId]:
        """Blocks that have begun training (appear in the history table)."""
        return sorted(self._history)

    def average_pattern_entries(self) -> float:
        """Mean pattern-table entries per allocated block (Table 4 'pte')."""
        blocks = self.allocated_blocks()
        if not blocks:
            return 0.0
        total = sum(self.pattern_entry_count(b) for b in blocks)
        return total / len(blocks)


# Resolved late to avoid an import cycle with repro.predictors.storage.
from repro.predictors.storage import StorageProfile as StorageProfileT  # noqa: E402
