"""Combining aligned per-token outputs of several classifiers.

Four voting methods (majority, accuracy-weighted, per-tag precision,
precision-recall) plus the pair-conditioned stacked method and instance
builders for stacking a k-NN learner on top of system outputs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import DomainError
from .learner import Instance


class CombineMethod(Enum):
    MAJORITY = "majority"
    TOT_PRECISION = "totprecision"
    TAG_PRECISION = "tagprecision"
    PRECISION_RECALL = "precisionrecall"
    TAG_PAIR = "tagpair"


@dataclass(frozen=True)
class SystemOutputs:
    """Aligned output tags of several systems, optionally with gold tags."""

    systems: tuple[tuple[str, ...], ...]
    gold: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.systems:
            raise DomainError("need at least one system")
        n = len(self.systems[0])
        if any(len(s) != n for s in self.systems):
            raise DomainError("system outputs are not aligned")
        if self.gold is not None and len(self.gold) != n:
            raise DomainError("gold tags are not aligned with system outputs")

    @property
    def positions(self) -> int:
        return len(self.systems[0])

    def column(self, i: int) -> tuple[str, ...]:
        return tuple(s[i] for s in self.systems)


@dataclass
class CombinerWeights:
    method: CombineMethod
    accuracy: dict[int, float] = field(default_factory=dict)
    precision: dict[tuple[int, str], float] = field(default_factory=dict)
    recall: dict[tuple[int, str], float] = field(default_factory=dict)
    # (sys_i, sys_j, out_i, out_j) -> gold tag distribution
    pair_cond: dict[tuple[int, int, str, str], dict[str, float]] = field(
        default_factory=dict
    )
    base_freq: dict[str, float] = field(default_factory=dict)


def majority_vote(outputs: Sequence[str]) -> str:
    """Plurality tag; ties go to the earliest system voting a tied tag."""
    if not outputs:
        raise DomainError("no outputs to vote on")
    counts = Counter(outputs)
    top = max(counts.values())
    return next(tag for tag in outputs if counts[tag] == top)


def fit_weights(tuning: SystemOutputs, method: CombineMethod) -> CombinerWeights:
    """Estimate the chosen method's weights from tuning outputs with gold."""
    weights = CombinerWeights(method=method)
    if method is CombineMethod.MAJORITY:
        return weights
    if tuning.gold is None or tuning.positions == 0:
        raise DomainError(f"{method.value} requires non-empty tuning data with gold")

    gold = tuning.gold
    n = tuning.positions
    if method is CombineMethod.TOT_PRECISION:
        for s, out in enumerate(tuning.systems):
            weights.accuracy[s] = sum(o == g for o, g in zip(out, gold)) / n
        return weights

    if method in (CombineMethod.TAG_PRECISION, CombineMethod.PRECISION_RECALL):
        for s, out in enumerate(tuning.systems):
            predicted: Counter[str] = Counter(out)
            gold_counts: Counter[str] = Counter(gold)
            hits: Counter[str] = Counter(o for o, g in zip(out, gold) if o == g)
            for tag, np_ in predicted.items():
                weights.precision[(s, tag)] = hits[tag] / np_
            if method is CombineMethod.PRECISION_RECALL:
                for tag, ng in gold_counts.items():
                    weights.recall[(s, tag)] = hits[tag] / ng
        return weights

    # TAG_PAIR
    pair_counts: dict[tuple[int, int, str, str], Counter[str]] = defaultdict(Counter)
    systems = tuning.systems
    for pos in range(n):
        g = gold[pos]
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                pair_counts[(i, j, systems[i][pos], systems[j][pos])][g] += 1
    for key, counts in pair_counts.items():
        total = sum(counts.values())
        weights.pair_cond[key] = {t: c / total for t, c in counts.items()}
    gold_counts = Counter(gold)
    weights.base_freq = {t: c / n for t, c in gold_counts.items()}
    return weights


def _argmax_tag(scores: Mapping[str, float], outputs: Sequence[str]) -> str:
    best = max(scores.values())
    tied = {t for t, v in scores.items() if v >= best - 1e-12}
    if len(tied) == 1:
        return next(iter(tied))
    for tag in outputs:  # system priority
        if tag in tied:
            return tag
    return min(tied)


def vote(
    outputs: Sequence[str], weights: CombinerWeights, method: CombineMethod
) -> str:
    """Weighted vote over one position's system outputs."""
    if not outputs:
        raise DomainError("no outputs to vote on")
    if method is CombineMethod.MAJORITY:
        return majority_vote(outputs)

    scores: dict[str, float] = {}
    if method is CombineMethod.TOT_PRECISION:
        for s, tag in enumerate(outputs):
            scores[tag] = scores.get(tag, 0.0) + weights.accuracy.get(s, 0.0)
    elif method is CombineMethod.TAG_PRECISION:
        for s, tag in enumerate(outputs):
            scores[tag] = scores.get(tag, 0.0) + weights.precision.get((s, tag), 0.0)
    elif method is CombineMethod.PRECISION_RECALL:
        for cand in set(outputs):
            total = 0.0
            for s, tag in enumerate(outputs):
                if tag == cand:
                    total += weights.precision.get((s, cand), 0.0)
                elif (s, cand) in weights.recall:
                    total += 1.0 - weights.recall[(s, cand)]
                # unseen (system, tag): contributes 0
            scores[cand] = total
    elif method is CombineMethod.TAG_PAIR:
        # candidates may include tags no system voted for
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                dist = weights.pair_cond.get(
                    (i, j, outputs[i], outputs[j]), weights.base_freq
                )
                for tag, p in dist.items():
                    scores[tag] = scores.get(tag, 0.0) + p
    else:
        raise DomainError(f"unknown combination method {method}")

    if not scores:
        return majority_vote(outputs)
    return _argmax_tag(scores, outputs)


def vote_sequence(
    outputs: SystemOutputs, weights: CombinerWeights, method: CombineMethod
) -> list[str]:
    return [
        vote(outputs.column(i), weights, method) for i in range(outputs.positions)
    ]


def build_stacked_instances(
    outputs: SystemOutputs,
    context: Sequence[Sequence[str]] | None = None,
):
    """One feature vector per position: the system outputs, extended with any
    aligned context columns.  With gold present, returns labeled instances for
    training a stacked learner; otherwise bare query vectors.
    """
    ctx = tuple(tuple(col) for col in context) if context else ()
    for col in ctx:
        if len(col) != outputs.positions:
            raise DomainError("context column not aligned with system outputs")
    vectors = [
        outputs.column(i) + tuple(col[i] for col in ctx)
        for i in range(outputs.positions)
    ]
    if outputs.gold is None:
        return vectors
    return [Instance(v, g) for v, g in zip(vectors, outputs.gold)]

