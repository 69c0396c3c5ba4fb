"""Exclusive-or benchmark for the learner's tolerance of irrelevant features.

Each run builds 100 copies of the four exclusive-or patterns for training and
for testing, appends a configurable number of independent uniform random bits
to every row, trains a learner (degenerate-weight fallback on), and counts how
many of the 400 test rows come back with the right label.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .learner import FeatureColumns, InstanceBase, LearnerConfig, classify_labels, train

# the two exclusive-or inputs and their label
_PATTERNS = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
_COPIES = 100
_SYMBOLS = np.array(["0", "1"])


def _build_rows(rng: np.random.Generator, num_random_features: int) -> InstanceBase:
    """One round's 400 rows: 100 copies of each pattern in turn, each
    followed by ``num_random_features`` uniform random bits."""
    rows = np.repeat(_PATTERNS, _COPIES, axis=0)
    bits = rng.integers(0, 2, size=(len(rows), num_random_features))
    features = _SYMBOLS[np.hstack([rows[:, :2], bits])]
    return InstanceBase.from_columns(features.T.tolist(), _SYMBOLS[rows[:, 2]].tolist())


def xor_run(
    rng: np.random.Generator, num_random_features: int, k: int = 3
) -> int:
    """One train/test round; returns the number of correct test rows (of 400).

    Each distinct test row is classified once: with m extras there are at
    most 4 * 2**m of them, and a row's label does not depend on the others.
    """
    train_set = _build_rows(rng, num_random_features)
    test_set = _build_rows(rng, num_random_features)
    model = train(train_set, LearnerConfig(k=k, degenerate_weight_fallback=True))
    distinct, row_of = np.unique(np.column_stack(test_set.columns), axis=0, return_inverse=True)
    queries = FeatureColumns(test_set.codes, tuple(distinct.T), len(distinct))
    labels = np.array(classify_labels(model, queries))
    expected = np.array(list(test_set.classes))[test_set.label_codes]
    return int(np.sum(labels[row_of] == expected))


def xor_experiment(
    num_random_features: int, runs: int, seed: int, k: int = 3
) -> float:
    """Mean number of correct test patterns (out of 400) over ``runs`` rounds."""
    if num_random_features < 0:
        raise DomainError("num_random_features must be >= 0")
    if runs < 1:
        raise DomainError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(runs):
        total += xor_run(rng, num_random_features, k=k)
    return total / runs
