"""Exclusive-or benchmark for the learner's tolerance of irrelevant features.

Each run builds 100 copies of the four exclusive-or patterns for training and
for testing, appends a configurable number of independent uniform random bits
to every row, trains a learner (degenerate-weight fallback on), and counts how
many of the 400 test rows come back with the right label.

A round never spells its bits as symbols: the rows are coded straight from
the drawn 0/1 arrays, each column in order of first occurrence as
``InstanceBase.from_columns`` would code the strings "0" and "1", and the
distinct test rows are found on one packed key per row, the row's codes
packed 8 to a byte, so that each is classified once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .learner import FeatureColumns, InstanceBase, LearnerConfig, classify_labels, train

# the two exclusive-or inputs and their label
_PATTERNS = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
_COPIES = 100
# a 0/1 column's symbols in code order, by its first value
_ORDER = (("0", "1"), ("1", "0"))


def _coded(columns: np.ndarray) -> tuple[tuple[dict[str, int], ...], np.ndarray]:
    """The symbol tables and uint8 codes of the 0/1 rows of ``columns``, one
    row per column, each coded in order of first occurrence: a column's code
    is its value xor its first value, and a constant column's table holds
    one symbol."""
    first = columns[:, 0]
    codes = (columns ^ first[:, None]).astype(np.uint8)
    tables = tuple(
        dict(zip(_ORDER[f], range(1 + mixed)))
        for f, mixed in zip(first.tolist(), codes.any(axis=1).tolist())
    )
    return tables, codes


def _build_rows(rng: np.random.Generator, num_random_features: int) -> InstanceBase:
    """One round's 400 rows: 100 copies of each pattern in turn, each
    followed by ``num_random_features`` uniform random bits."""
    rows = np.repeat(_PATTERNS, _COPIES, axis=0)
    bits = rng.integers(0, 2, size=(len(rows), num_random_features))
    tables, codes = _coded(np.vstack([rows[:, :2].T, bits.T]))
    (classes,), (labels,) = _coded(rows[:, 2][None])
    return InstanceBase(tables, tuple(codes), len(rows), classes, labels)


def xor_run(
    rng: np.random.Generator, num_random_features: int, k: int = 3
) -> int:
    """One train/test round; returns the number of correct test rows (of 400).

    Each distinct test row is classified once: with m extras there are at
    most 4 * 2**m of them, and a row's label does not depend on the others.
    A row's key is its 0/1 codes packed into bytes, one ``np.void`` item, so
    any number of extras fits.
    """
    train_set = _build_rows(rng, num_random_features)
    test_set = _build_rows(rng, num_random_features)
    model = train(train_set, LearnerConfig(k=k, degenerate_weight_fallback=True))
    packed = np.packbits(np.column_stack(test_set.columns), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
    queries = FeatureColumns(
        test_set.codes, tuple(column[first] for column in test_set.columns), len(first)
    )
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
