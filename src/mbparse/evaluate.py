"""Chunk-level precision/recall/F-beta scoring and bootstrap resampling."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .schemes import ChunkSpan


@dataclass(frozen=True)
class EvalConfig:
    beta: float = 1.0
    bootstrap_samples: int = 10_000
    tail: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # F's numerator, (beta^2 + 1) * precision * recall, overflows past
        # beta 1.3e152 with both at 100%
        if not 0 < self.beta <= 1e150:
            raise DomainError(f"beta must be a number above 0 and at most 1e150, got {self.beta}")
        if not 0 < self.tail < 0.5:
            raise DomainError("tail must lie strictly between 0 and 0.5")
        if self.bootstrap_samples < 1:
            raise DomainError("bootstrap_samples must be >= 1")


def f_beta(precision, recall, beta: float = 1.0):
    """Weighted harmonic combination, 0 where precision and recall are;
    both as percentages, or as arrays of them for an array of scores."""
    precision, recall = np.asarray(precision, dtype=float), np.asarray(recall, dtype=float)
    beta2 = beta * beta
    denom = beta2 * precision + recall
    f = np.divide((beta2 + 1) * precision * recall, denom,
                  out=np.zeros(denom.shape), where=denom > 0)
    return f if f.ndim else float(f)


@dataclass
class ScoreReport:
    found: int
    correct: int
    gold: int
    precision: float  # percentage
    recall: float     # percentage
    f: float
    per_type: dict[str, "ScoreReport"] = field(default_factory=dict)


def _make_report(found: int, correct: int, gold: int, beta: float) -> ScoreReport:
    precision = 100.0 * correct / found if found else 0.0
    recall = 100.0 * correct / gold if gold else 0.0
    return ScoreReport(found, correct, gold, precision, recall, f_beta(precision, recall, beta))


def _sentence_counts(found, gold):
    """(found, correct, gold) span counts for one sentence, overall and per type."""
    fc = Counter(found)
    gc = Counter(gold)
    correct = fc & gc
    per_type: dict[str, list[int]] = {}
    for c, bucket in ((fc, 0), (correct, 1), (gc, 2)):
        for span, k in c.items():
            per_type.setdefault(span.type, [0, 0, 0])[bucket] += k
    return sum(fc.values()), sum(correct.values()), sum(gc.values()), per_type


def score(
    found: Sequence[Iterable[ChunkSpan]],
    gold: Sequence[Iterable[ChunkSpan]],
    config: EvalConfig = EvalConfig(),
) -> ScoreReport:
    """Exact-match chunk scoring: a found span is correct iff the same
    (start, end, type) appears in that sentence's gold."""
    if len(found) != len(gold):
        raise DomainError(
            f"found has {len(found)} sentences but gold has {len(gold)}"
        )
    tot_f = tot_c = tot_g = 0
    types: dict[str, list[int]] = {}
    for fs, gs in zip(found, gold):
        f, c, g, per_type = _sentence_counts(list(fs), list(gs))
        tot_f += f
        tot_c += c
        tot_g += g
        for typ, (tf, tc, tg) in per_type.items():
            acc = types.setdefault(typ, [0, 0, 0])
            acc[0] += tf
            acc[1] += tc
            acc[2] += tg
    report = _make_report(tot_f, tot_c, tot_g, config.beta)
    report.per_type = {
        typ: _make_report(tf, tc, tg, config.beta)
        for typ, (tf, tc, tg) in sorted(types.items())
    }
    return report


@dataclass(frozen=True)
class BootstrapReport:
    mean: float
    stddev: float
    lower: float
    upper: float
    point: float
    samples: int


def bootstrap(
    found: Sequence[Iterable[ChunkSpan]],
    gold: Sequence[Iterable[ChunkSpan]],
    config: EvalConfig = EvalConfig(),
) -> BootstrapReport:
    """Resample sentences with replacement (sample size = corpus size), score
    each resample and summarize the F distribution.  The lower/upper bounds
    are the inclusive order statistics at rank ceil(tail * samples) from each
    end, so at most a ``tail`` fraction of samples scores strictly beyond
    either bound.  Deterministic for a fixed seed.
    """
    if len(found) != len(gold):
        raise DomainError("found and gold differ in sentence count")
    n = len(found)
    if n == 0:
        raise DomainError("bootstrap needs at least one sentence")

    counts = np.zeros((n, 3), dtype=np.int64)
    for i, (fs, gs) in enumerate(zip(found, gold)):
        f, c, g, _ = _sentence_counts(list(fs), list(gs))
        counts[i] = (f, c, g)

    def f_of(sums: np.ndarray) -> np.ndarray:
        # a count of 0 found (or gold) spans has 0 correct: precision (recall) 0
        p, r = (100.0 * sums[..., 1] / np.maximum(sums[..., i], 1) for i in (0, 2))
        return f_beta(p, r, config.beta)

    point = float(f_of(counts.sum(axis=0)))

    rng = np.random.default_rng(config.seed)
    total = config.bootstrap_samples
    scores = np.empty(total, dtype=np.float64)
    done = 0
    block = max(1, min(total, 4_000_000 // max(n, 1)))
    while done < total:
        m = min(block, total - done)
        idx = rng.integers(0, n, size=(m, n))
        sums = counts[idx].sum(axis=1)
        scores[done : done + m] = f_of(sums)
        done += m

    scores.sort()
    rank = math.ceil(config.tail * total)
    lower = float(scores[rank - 1])
    upper = float(scores[total - rank])
    return BootstrapReport(
        mean=float(scores.mean()),
        stddev=float(scores.std()),
        lower=lower,
        upper=upper,
        point=point,
        samples=total,
    )


# ---------------------------------------------------------------------------
# Report rendering.


def format_report(report: ScoreReport) -> str:
    """Human-readable table: one row per phrase type plus the overall row."""
    rows = []
    header = f"{'':10s} {'precision':>9s} {'recall':>9s} {'F':>7s} {'found':>6s} {'gold':>6s}"
    rows.append(header)
    for typ, r in report.per_type.items():
        rows.append(
            f"{typ:10s} {r.precision:8.2f}% {r.recall:8.2f}% {r.f:7.2f} {r.found:6d} {r.gold:6d}"
        )
    rows.append(
        f"{'all':10s} {report.precision:8.2f}% {report.recall:8.2f}% "
        f"{report.f:7.2f} {report.found:6d} {report.gold:6d}"
    )
    return "\n".join(rows)


def report_lines(report: ScoreReport) -> list[str]:
    """Machine-readable lines: type, precision, recall, F."""
    lines = [
        f"{typ}\t{r.precision:.2f}\t{r.recall:.2f}\t{r.f:.2f}"
        for typ, r in report.per_type.items()
    ]
    lines.append(
        f"all\t{report.precision:.2f}\t{report.recall:.2f}\t{report.f:.2f}"
    )
    return lines
