"""The k-NN query kernel against the dense kernel it replaced.

``dense_winner_ids`` is the earlier kernel, kept verbatim as the reference:
it adds one float64 b x n mismatch array per weighted feature, sorts every
row and ranks the distinct distances.  The mismatch-code kernel must give
the same winners, the same nearest distances bit for bit and the same vote
counts.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbparse import learner
from mbparse.learner import (
    Instance,
    LearnerConfig,
    Model,
    TiePolicy,
    WeightTable,
    _batch_winner_ids,
    classify_batch,
    classify_labels,
    train,
)

_DISTANCE_DECIMALS = 9


def dense_winner_ids(model, queries, block=512):
    """Reference: the dense sort-and-rank kernel, with its own index."""
    n = len(model.instances)
    arity = model.arity
    matrix = np.empty((n, arity), dtype=np.int32)
    codes = []
    for i, column in enumerate(zip(*(inst.features for inst in model.instances))):
        table = {v: code for code, v in enumerate(dict.fromkeys(column))}
        matrix[:, i] = [table[v] for v in column]
        codes.append(table)
    encoded = np.full((len(queries), arity), -1, dtype=np.int32)
    for i, (column, table) in enumerate(zip(zip(*queries), codes)):
        encoded[:, i] = [table.get(v, -1) for v in column]
    if model.config.tie_policy is TiePolicy.GLOBAL_CLASS_FREQUENCY:
        pref = sorted(
            model.class_frequencies, key=lambda c: (-model.class_frequencies[c], c)
        )
    else:
        pref = sorted(model.class_frequencies)
    label_pos = {c: i for i, c in enumerate(pref)}
    label_ids = np.array([label_pos[inst.label] for inst in model.instances], dtype=np.int32)
    onehot = np.zeros((n, len(pref)), dtype=np.int32)
    onehot[np.arange(n), label_ids] = 1
    weights = np.asarray(model.weight_table.weights, dtype=np.float64)

    k = model.config.k
    for lo in range(0, encoded.shape[0], block):
        q = encoded[lo : lo + block]
        b = q.shape[0]
        dist = np.zeros((b, n), dtype=np.float64)
        for i in range(arity):
            w = weights[i]
            if w != 0.0:
                dist += w * (q[:, i : i + 1] != matrix[None, :, i])
        rounded = np.round(dist, _DISTANCE_DECIMALS)
        order = np.sort(rounded, axis=1)
        if n > 1:
            ranks = np.zeros((b, n), dtype=np.int64)
            np.cumsum(order[:, 1:] != order[:, :-1], axis=1, out=ranks[:, 1:])
        else:
            ranks = np.zeros((b, 1), dtype=np.int64)
        n_distinct = ranks[:, -1] + 1
        kk = np.minimum(k, n_distinct)
        cutoff = (ranks < kk[:, None]).sum(axis=1)
        threshold = order[np.arange(b), cutoff - 1]
        mask = rounded <= threshold[:, None]
        votes = mask.astype(np.int32) @ onehot
        winners = np.argmax(votes, axis=1)
        yield [pref[w] for w in winners], dist.min(axis=1), votes


def kernel_outputs(model, queries):
    """Winning labels, nearest distances and votes over all blocks."""
    idx = model._index
    labels, nearest, votes = [], [], []
    for w, d, v in _batch_winner_ids(model, idx.encode_queries(queries)):
        labels.extend(idx.labels_in_pref[i] for i in w)
        nearest.append(d)
        votes.append(v)
    return labels, np.concatenate(nearest), np.concatenate(votes)


def assert_same_as_dense(model, queries):
    labels, nearest, votes = kernel_outputs(model, queries)
    parts = list(dense_winner_ids(model, queries))
    want_labels = [label for p in parts for label in p[0]]
    want_nearest = np.concatenate([p[1] for p in parts])
    want_votes = np.concatenate([p[2] for p in parts])
    assert labels == want_labels
    assert nearest.dtype == np.float64
    assert [x.hex() for x in nearest.tolist()] == [x.hex() for x in want_nearest.tolist()]
    assert votes.shape == want_votes.shape and np.array_equal(votes, want_votes)


def make_model(rows, labels, weights, k=3, tie_policy=TiePolicy.GLOBAL_CLASS_FREQUENCY):
    return Model(
        instances=tuple(Instance(tuple(r), c) for r, c in zip(rows, labels)),
        weight_table=WeightTable(tuple(weights)),
        config=LearnerConfig(k=k, tie_policy=tie_policy),
        class_frequencies=dict(Counter(labels)),
    )


# Weights whose sums depend on their order in the last bits (0.1 + 0.2 + 0.3
# differs from 0.3 + 0.2 + 0.1), plus zero.
WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_matches_dense_kernel(data):
    arity = data.draw(st.integers(1, 22), label="arity")
    # "a".."c" occur in training; "d" never does, so it matches nothing
    row = st.lists(st.sampled_from("abc"), min_size=arity, max_size=arity)
    rows = data.draw(st.lists(row, min_size=1, max_size=40), label="rows")
    labels = data.draw(
        st.lists(st.sampled_from("XYZ"), min_size=len(rows), max_size=len(rows)),
        label="labels",
    )
    queries = data.draw(
        st.lists(
            st.lists(st.sampled_from("abcd"), min_size=arity, max_size=arity),
            min_size=1,
            max_size=12,
        ),
        label="queries",
    )
    k = data.draw(st.integers(1, 7), label="k")
    tie_policy = data.draw(st.sampled_from(list(TiePolicy)), label="tie_policy")
    if data.draw(st.booleans(), label="trained"):
        fallback = data.draw(st.booleans(), label="fallback")
        model = train(
            [Instance(tuple(r), c) for r, c in zip(rows, labels)],
            LearnerConfig(k=k, tie_policy=tie_policy, degenerate_weight_fallback=fallback),
        )
    else:
        weights = data.draw(st.lists(WEIGHTS, min_size=arity, max_size=arity))
        model = make_model(rows, labels, weights, k, tie_policy)
    assert_same_as_dense(model, [tuple(q) for q in queries])


@pytest.mark.parametrize("fallback", [True, False])
def test_all_zero_weights_match_dense_kernel(fallback):
    # one class: every gain ratio is 0, so the fallback decides the weights
    rows = [("a", "b"), ("a", "c"), ("b", "b")]
    model = train(
        [Instance(r, "X") for r in rows],
        LearnerConfig(k=2, degenerate_weight_fallback=fallback),
    )
    assert model.weight_table.weights == ((1.0, 1.0) if fallback else (0.0, 0.0))
    assert_same_as_dense(model, [("a", "b"), ("d", "d"), ("b", "c")])


@pytest.mark.parametrize("tie_policy", list(TiePolicy))
def test_ties_and_duplicate_rows_match_dense_kernel(tie_policy):
    rows = [("a", "b")] * 3 + [("a", "c")] * 3 + [("b", "b")]
    labels = ["X", "Y", "Y", "X", "X", "Y", "Z"]
    model = make_model(rows, labels, [0.5, 0.5], k=1, tie_policy=tie_policy)
    assert_same_as_dense(model, [("a", "b"), ("a", "d"), ("d", "d")])


def test_k_beyond_distinct_distances_and_single_instance():
    model = make_model([("a", "b")], ["X"], [0.3, 0.7], k=7)
    assert_same_as_dense(model, [("a", "b"), ("a", "c"), ("c", "c")])
    rows = [("a", "b"), ("b", "b"), ("c", "a")]
    model = make_model(rows, ["X", "Y", "Y"], [0.3, 0.7], k=5)
    assert_same_as_dense(model, [("a", "b"), ("c", "c")])


def test_features_past_the_table_match_dense_kernel():
    rng = np.random.default_rng(3)
    arity = 26  # MAX_OFFSET allows 26 features; the table codes 16
    rows = rng.choice(list("abc"), size=(60, arity)).tolist()
    labels = rng.choice(list("XYZ"), size=60).tolist()
    weights = rng.choice([0.1, 0.2, 0.3, 0.7], size=arity).tolist()
    model = make_model(rows, labels, weights, k=3)
    assert len(model._index.head) == 16 and len(model._index.tail) == 10
    queries = [tuple(q) for q in rng.choice(list("abcd"), size=(20, arity)).tolist()]
    assert_same_as_dense(model, queries)


def random_model(n, arity, seed, k=3):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6, size=(n, arity)).astype(str).tolist()
    labels = rng.choice(list("XYZ"), size=n).tolist()
    weights = rng.uniform(0.05, 1.0, size=arity).tolist()
    model = make_model(rows, labels, weights, k=k)
    queries = [tuple(q) for q in rng.integers(0, 7, size=(40, arity)).astype(str).tolist()]
    return model, queries


@pytest.mark.parametrize("per_block", [0, 1, 3, 7, 39, 40])
def test_block_boundaries_do_not_change_outputs(per_block, monkeypatch):
    model, queries = random_model(300, 18, seed=5)
    whole = classify_batch(model, queries)
    # a budget below one query's scratch still runs one query per block
    budget = per_block * learner._PAIR_SCRATCH_BYTES * len(model.instances)
    monkeypatch.setattr(learner, "_SCRATCH_BUDGET", budget)
    blocks = sum(1 for _ in _batch_winner_ids(model, model._index.encode_queries(queries)))
    assert blocks == -(-len(queries) // max(1, per_block))
    assert classify_batch(model, queries) == whole


def test_block_scratch_stays_within_budget():
    n, n_queries = 20_000, 512
    model, _ = random_model(n, 11, seed=9)
    rng = np.random.default_rng(10)
    queries = [tuple(q) for q in rng.integers(0, 7, size=(n_queries, 11)).astype(str).tolist()]
    model._index  # the index is built once per model, outside the budget
    per_block = learner._SCRATCH_BUDGET // (learner._PAIR_SCRATCH_BYTES * n)
    assert per_block < n_queries  # the budget splits this call into blocks
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        classify_labels(model, queries)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak >= per_block * n * 8  # numpy's arrays are traced: one distance block
    assert peak <= learner._SCRATCH_BUDGET + 2**20
