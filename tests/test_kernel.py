"""The k-NN query kernel against the dense kernel it replaced.

``references.dense_winner_ids`` is the earlier kernel, kept as the
reference: it adds one float64 b x n mismatch array per weighted feature,
sorts every row and ranks the distinct distances.  The mismatch-code kernel
must give the same winners and the same vote counts.
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
    classify_labels,
    train,
)
from references import dense_winner_ids


def kernel_outputs(model, queries):
    """Winning labels and votes over all blocks."""
    idx = model._index
    labels, votes = [], []
    for w, v in _batch_winner_ids(model, idx.encode_queries(queries)):
        labels.extend(idx.labels_in_pref[i] for i in w)
        votes.append(v)
    return labels, np.concatenate(votes)


def assert_same_as_dense(model, queries):
    labels, votes = kernel_outputs(model, queries)
    parts = list(dense_winner_ids(model, queries))
    want_labels = [label for p in parts for label in p[0]]
    want_votes = np.concatenate([p[2] for p in parts])
    assert labels == want_labels
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
    # a k no loop could count to (a damaged model file may hold one) stops
    # once every query is out of distances
    model = make_model(rows, ["X", "Y", "Y"], [0.3, 0.7], k=2**62)
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
    whole_labels, whole_votes = kernel_outputs(model, queries)
    # a budget below one query's scratch still runs one query per block
    budget = per_block * learner._PAIR_SCRATCH_BYTES * len(model.instances)
    monkeypatch.setattr(learner, "_SCRATCH_BUDGET", budget)
    blocks = sum(1 for _ in _batch_winner_ids(model, model._index.encode_queries(queries)))
    assert blocks == -(-len(queries) // max(1, per_block))
    labels, votes = kernel_outputs(model, queries)
    assert labels == whole_labels and np.array_equal(votes, whole_votes)


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
