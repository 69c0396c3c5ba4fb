import math
import os
import random
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.errors import DomainError
from mbparse.learner import (
    Instance,
    InstanceBase,
    LearnerConfig,
    Model,
    TiePolicy,
    WeightTable,
    _escape,
    _ModelIndex,
    _unescape,
    classify,
    classify_labels,
    gain_ratio_weights,
    load_model,
    save_model,
    train,
)
from references import dense_classify, entropy


def uniform_model(instances, k=1, tie=TiePolicy.GLOBAL_CLASS_FREQUENCY):
    """A model with explicit all-ones weights (plain overlap metric)."""
    arity = len(instances[0].features)
    freqs = {}
    for inst in instances:
        freqs[inst.label] = freqs.get(inst.label, 0) + 1
    table = WeightTable(weights=(1.0,) * arity)
    return Model(
        instances=tuple(instances),
        weight_table=table,
        config=LearnerConfig(k=k, tie_policy=tie),
        class_frequencies=freqs,
    )


class TestEntropy:
    def test_uniform_two_class(self):
        assert entropy({"a": 5, "b": 5}) == 1.0

    def test_single_class(self):
        assert entropy({"a": 7}) == 0.0

    def test_three_one_split(self):
        assert abs(entropy({"a": 3, "b": 1}) - 0.811278) < 1e-6

    def test_all_zero(self):
        with pytest.raises(DomainError):
            entropy({"a": 0, "b": 0})

    def test_negative(self):
        with pytest.raises(DomainError):
            entropy({"a": -1})

    def test_bounded_by_log_classes(self):
        h = entropy({"a": 2, "b": 3, "c": 4})
        assert 0 <= h <= math.log2(3)


TRAIN1 = Instance(("man", "saw", "the"), "V")
TRAIN2 = Instance(("the", "saw", "."), "N")


class TestGainRatio:
    def test_constant_feature_weight_zero(self):
        table = gain_ratio_weights([TRAIN1, TRAIN2])
        assert table.weights[1] == 0.0
        assert table.weights[0] > 0 and table.weights[2] > 0

    def test_informative_vs_constant(self):
        data = [
            Instance(("x", "c"), "x"),
            Instance(("y", "c"), "y"),
            Instance(("x", "c"), "x"),
            Instance(("y", "c"), "y"),
        ]
        table = gain_ratio_weights(data)
        assert table.weights[0] > 0
        assert table.weights[1] == 0.0

    def test_balanced_xor_all_zero(self):
        data = []
        for a, b, label in (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")):
            data.extend([Instance((a, b), label)] * 100)
        table = gain_ratio_weights(data)
        assert table.weights == (0.0, 0.0)

    def test_empty_dataset(self):
        with pytest.raises(DomainError):
            gain_ratio_weights([])

    def test_mixed_arity(self):
        with pytest.raises(DomainError):
            gain_ratio_weights([Instance(("a",), "x"), Instance(("a", "b"), "x")])

    def test_conditional_terms_recorded(self):
        # the entropy terms behind the weights, as the row-order reference
        # tabulates them
        _, h_class, _, conditionals = row_order_gain_ratio([TRAIN1, TRAIN2])
        assert h_class == 1.0
        p, h = conditionals[1]["saw"]
        assert p == 1.0 and h == 1.0


def brute_force_gain_ratio(dataset):
    """Independent oracle: tabulate P(v) and H(C|v) directly."""
    n = len(dataset)
    labels = [inst.label for inst in dataset]

    def h(values):
        total = len(values)
        out = 0.0
        for v in set(values):
            p = values.count(v) / total
            out -= p * math.log2(p)
        return out

    h_class = h(labels)
    weights = []
    for i in range(len(dataset[0].features)):
        column = [inst.features[i] for inst in dataset]
        h_v = h(column)
        if h_v == 0:
            weights.append(0.0)
            continue
        acc = 0.0
        for v in set(column):
            subset = [lab for val, lab in zip(column, labels) if val == v]
            acc += (len(subset) / n) * h(subset)
        weights.append(max(0.0, (h_class - acc) / h_v))
    return weights


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gain_ratio_matches_brute_force(data):
    arity = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(1, 20))
    rows = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from("01") for _ in range(arity)]),
                st.sampled_from("01"),
            ),
            min_size=size,
            max_size=size,
        )
    )
    dataset = [Instance(feats, label) for feats, label in rows]
    got = gain_ratio_weights(dataset).weights
    expected = brute_force_gain_ratio(dataset)
    assert all(abs(g - e) < 1e-9 for g, e in zip(got, expected))


def row_order_gain_ratio(dataset):
    """Plain per-row tabulation in first-occurrence order, so every entropy
    sums its terms in the same order as ``gain_ratio_weights``."""
    n = len(dataset)
    h_class = entropy(Counter(inst.label for inst in dataset))
    weights, value_entropies, conditionals = [], [], []
    for i in range(len(dataset[0].features)):
        value_counts, class_by_value = Counter(), {}
        for inst in dataset:
            value_counts[inst.features[i]] += 1
            class_by_value.setdefault(inst.features[i], Counter())[inst.label] += 1
        h_value = entropy(value_counts)
        cond = {v: (nv / n, entropy(class_by_value[v])) for v, nv in value_counts.items()}
        expected = 0.0
        for p_v, h_cv in cond.values():
            expected += p_v * h_cv
        weights.append(0.0 if h_value == 0.0 else max(0.0, (h_class - expected) / h_value))
        value_entropies.append(h_value)
        conditionals.append(cond)
    return tuple(weights), h_class, tuple(value_entropies), conditionals


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gain_ratio_bit_identical_to_row_order_reference(data):
    arity = data.draw(st.integers(1, 4))
    # enough classes per value that summing their terms in another order
    # changes the last bit of some weights
    rows = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from("abcde") for _ in range(arity)]),
                st.sampled_from("stuvwxyz"),
            ),
            min_size=1,
            max_size=80,
        )
    )
    dataset = [Instance(feats, label) for feats, label in rows]
    weights = row_order_gain_ratio(dataset)[0]
    assert gain_ratio_weights(dataset).weights == weights
    assert gain_ratio_weights(InstanceBase.from_rows(dataset)).weights == weights


class TestTrain:
    def test_xor_fallback_gives_uniform(self):
        data = []
        for a, b, label in (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")):
            data.extend([Instance((a, b), label)] * 100)
        model = train(data, LearnerConfig(k=1))
        assert model.weight_table.weights == (1.0, 1.0)

    def test_fallback_off_keeps_zeros(self):
        data = [Instance(("a",), "x"), Instance(("a",), "y")]
        model = train(data, LearnerConfig(k=1, degenerate_weight_fallback=False))
        assert model.weight_table.weights == (0.0,)

    def test_single_instance_labels_everything(self):
        model = train([Instance(("a", "b"), "L")], LearnerConfig(k=1))
        assert classify(model, ("x", "y")) == "L"
        assert classify(model, ("a", "b")) == "L"

    def test_class_frequencies_sum(self):
        data = [TRAIN1, TRAIN2, Instance(("boy", "ran", "off"), "V")]
        model = train(data)
        assert sum(model.class_frequencies.values()) == len(model.instances)

    def test_weights_finite_nonnegative(self):
        data = [TRAIN1, TRAIN2]
        model = train(data)
        assert all(w >= 0 and math.isfinite(w) for w in model.weight_table.weights)

    def test_empty(self):
        with pytest.raises(DomainError):
            train([])


class TestClassify:
    def test_overlap_prefers_closer_item(self):
        model = uniform_model([TRAIN1, TRAIN2], k=1)
        query = ("boy", "saw", "the")
        assert classify(model, query) == "V"
        assert dense_classify(model, query)[:2] == ("V", 1.0)

    def test_exact_match(self):
        model = uniform_model([TRAIN1, TRAIN2], k=1)
        query = ("man", "saw", "the")
        assert classify(model, query) == "V"
        assert dense_classify(model, query)[:2] == ("V", 0.0)

    def test_two_distance_sets(self):
        instances = [
            Instance(("a", "a"), "A"),
            Instance(("a", "b"), "B"),
            Instance(("b", "a"), "B"),
        ]
        model = uniform_model(instances, k=2)
        assert classify(model, ("a", "a")) == "B"
        assert dense_classify(model, ("a", "a"))[2] == {"A": 1, "B": 2}

    def test_arity_mismatch(self):
        model = uniform_model([TRAIN1], k=1)
        with pytest.raises(DomainError):
            classify(model, ("just", "two"))

    def test_tie_global_frequency(self):
        instances = [
            Instance(("a",), "X"),
            Instance(("b",), "Y"),
            Instance(("c",), "Y"),  # Y more frequent overall
        ]
        model = uniform_model(instances, k=1)
        # query at distance 1 from everything: all in one set, X:1 vs Y:2
        assert classify(model, ("q",)) == "Y"
        # force a genuine tie: two singleton classes at equal distance
        model2 = uniform_model([Instance(("a",), "X"), Instance(("b",), "Y")], k=1)
        assert classify(model2, ("q",)) == "X"  # freq tie, lexicographic

    def test_tie_lexicographic_policy(self):
        model = uniform_model(
            [Instance(("a",), "Z"), Instance(("b",), "A")],
            k=1,
            tie=TiePolicy.LEXICOGRAPHIC,
        )
        assert classify(model, ("q",)) == "A"


class TestClassifyBatch:
    def test_empty(self):
        model = uniform_model([TRAIN1], k=1)
        assert classify_labels(model, []) == []

    def test_singleton_equals_classify(self):
        model = uniform_model([TRAIN1, TRAIN2], k=1)
        q = ("boy", "saw", "the")
        assert classify_labels(model, [q]) == [classify(model, q)]

    def test_batch_matches_elementwise(self):
        rng = random.Random(5)
        data = [
            Instance((rng.choice("ab"), rng.choice("abc")), rng.choice("XY"))
            for _ in range(30)
        ]
        model = train(data, LearnerConfig(k=2))
        queries = [(rng.choice("abz"), rng.choice("abcz")) for _ in range(40)]
        batch = classify_labels(model, queries)
        single = [classify(model, q) for q in queries]
        assert batch == single

    def test_error_names_offending_index(self):
        model = uniform_model([TRAIN1], k=1)
        with pytest.raises(DomainError, match="index 1"):
            classify_labels(model, [("a", "b", "c"), ("a", "b")])


# -- spec invariants ---------------------------------------------------------

symbols = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.data(),
)
def test_distance_identity_symmetry_bounds(arity, data):
    x = tuple(data.draw(symbols) for _ in range(arity))
    y = tuple(data.draw(symbols) for _ in range(arity))
    mx = uniform_model([Instance(x, "L")], k=1)
    my = uniform_model([Instance(y, "L")], k=1)
    dxy = dense_classify(mx, y)[1]
    dyx = dense_classify(my, x)[1]
    assert dxy == dyx
    assert 0 <= dxy <= arity
    assert dense_classify(mx, x)[1] == 0.0


def global_majority(model):
    if model.config.tie_policy is TiePolicy.GLOBAL_CLASS_FREQUENCY:
        return sorted(
            model.class_frequencies,
            key=lambda c: (-model.class_frequencies[c], c),
        )[0]
    counts = model.class_frequencies
    top = max(counts.values())
    return sorted(c for c in counts if counts[c] == top)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_large_k_degenerates_to_global_majority(data):
    size = data.draw(st.integers(1, 15))
    dataset = [
        Instance((data.draw(symbols), data.draw(symbols)), data.draw(st.sampled_from("XYZ")))
        for _ in range(size)
    ]
    model = train(dataset, LearnerConfig(k=10))  # k >= any distinct distance count
    query = (data.draw(symbols), data.draw(symbols))
    got = classify(model, query)
    counts = {}
    for inst in dataset:
        counts[inst.label] = counts.get(inst.label, 0) + 1
    top = max(counts.values())
    tied = sorted(c for c in counts if counts[c] == top)
    if len(tied) == 1:
        assert got == tied[0]
    else:
        assert got == global_majority(model)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constant_feature_never_changes_result(data):
    size = data.draw(st.integers(1, 12))
    dataset = [
        Instance((data.draw(symbols), data.draw(symbols)), data.draw(st.sampled_from("XY")))
        for _ in range(size)
    ]
    query = (data.draw(symbols), data.draw(symbols))
    model = train(dataset, LearnerConfig(k=2))
    padded = train(
        [Instance(inst.features + ("const",), inst.label) for inst in dataset],
        LearnerConfig(k=2),
    )
    assert classify(model, query) == classify(padded, query + ("const",))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_feature_permutation_invariance(data):
    arity = data.draw(st.integers(2, 4))
    size = data.draw(st.integers(1, 12))
    dataset = [
        Instance(tuple(data.draw(symbols) for _ in range(arity)), data.draw(st.sampled_from("XY")))
        for _ in range(size)
    ]
    query = tuple(data.draw(symbols) for _ in range(arity))
    perm = data.draw(st.permutations(range(arity)))
    model = train(dataset, LearnerConfig(k=2))
    permuted = train(
        [Instance(tuple(i.features[p] for p in perm), i.label) for i in dataset],
        LearnerConfig(k=2),
    )
    assert (
        classify(model, query)
        == classify(permuted, tuple(query[p] for p in perm))
    )


class TestPersistence:
    def test_round_trip_behavior(self, tmp_path):
        rng = random.Random(11)
        data = [
            Instance((rng.choice("abc"), rng.choice("de")), rng.choice("PQ"))
            for _ in range(25)
        ]
        model = train(data, LearnerConfig(k=2))
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.instances == model.instances
        assert loaded.weight_table.weights == model.weight_table.weights
        assert loaded.config == model.config
        assert loaded.class_frequencies == model.class_frequencies
        queries = [(rng.choice("abcz"), rng.choice("dez")) for _ in range(30)]
        assert classify_labels(loaded, queries) == classify_labels(model, queries)

    def test_symbols_with_escapes(self, tmp_path):
        data = [
            Instance(("has\ttab", "has\nnewline"), "back\\slash"),
            Instance(("arity 3", "weights 1.0"), "classes L"),  # header look-alikes
            Instance(("plain", "x"), "L"),
            Instance(("y\rz", "\x0bv\x0c"), "A\u2028"),  # breaks str.splitlines knows
        ]
        model = train(data, LearnerConfig(k=1))
        path = tmp_path / "weird.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.instances == model.instances
        assert loaded.class_frequencies == model.class_frequencies

    def test_fallback_weights_survive_round_trip(self, tmp_path):
        data = [Instance(("a", "a"), "X"), Instance(("a", "a"), "Y")]
        model = train(data, LearnerConfig(k=1))
        assert model.weight_table.weights == (1.0, 1.0)  # fallback applied
        path = tmp_path / "fb.model"
        save_model(model, path)
        assert load_model(path).weight_table.weights == (1.0, 1.0)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not a model\n")
        with pytest.raises(DomainError):
            load_model(path)

    def test_rejects_bad_frequencies(self, tmp_path):
        data = [Instance(("a",), "X")]
        model = train(data, LearnerConfig(k=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text().replace("classes X\t1", "classes X\t2")
        path.write_text(text)
        with pytest.raises(DomainError):
            load_model(path)

    def test_loaded_table_carries_stored_weights_only(self, tmp_path):
        data = [Instance(("a", "b"), "X"), Instance(("a", "c"), "Y")]
        model = train(data, LearnerConfig(k=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).weight_table == WeightTable(model.weight_table.weights)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("arity", "two"),
            ("k", "three"),
            ("k", "0"),
            ("tie-policy", "coin_flip"),
            ("fallback", "yes"),
            ("weights", "0.5 heavy"),
            ("weights", "0.5 nan"),
            ("weights", "inf 0.5"),
            ("classes", "X\tmany"),
        ],
    )
    def test_bad_header_value_is_domain_error(self, tmp_path, field, bad):
        model = train([Instance(("a", "b"), "X")], LearnerConfig(k=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines = [f"{field} {bad}" if l.split(" ", 1)[0] == field else l for l in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError):
            load_model(path)


def char_loop_unescape(text):
    """Reference: walk every character, as the format's reader once did."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# Escapes, the separators they stand for, and every other character that
# str.splitlines treats as a line boundary.
SYMBOL_ALPHABET = "ab\\tn\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=SYMBOL_ALPHABET, max_size=12))
def test_unescape_matches_char_loop(text):
    assert _unescape(text) == char_loop_unescape(text)
    assert _unescape(_escape(text)) == text


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.text(alphabet=SYMBOL_ALPHABET, max_size=5)] * 3),
        min_size=1,
        max_size=6,
    )
)
def test_any_symbol_survives_save_and_load(rows):
    model = train([Instance((a, b), label) for a, b, label in rows], LearnerConfig(k=1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.instances == model.instances
    assert loaded.class_frequencies == model.class_frequencies


def per_cell_index(instances, queries):
    """Reference: integer-code one cell at a time, in row order."""
    arity = len(instances[0].features)
    codes = [{} for _ in range(arity)]
    matrix = np.empty((len(instances), arity), dtype=np.int32)
    for r, inst in enumerate(instances):
        for i, v in enumerate(inst.features):
            matrix[r, i] = codes[i].setdefault(v, len(codes[i]))
    encoded = np.full((len(queries), arity), -1, dtype=np.int32)
    for r, query in enumerate(queries):
        for i, v in enumerate(query):
            encoded[r, i] = codes[i].get(v, -1)
    return codes, matrix, encoded


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_matches_per_cell_coding(data):
    arity = data.draw(st.integers(1, 4))
    row = st.tuples(*[st.sampled_from("abcd") for _ in range(arity)])
    rows = data.draw(st.lists(row, min_size=1, max_size=30))
    # "e" and "f" never occur in training, so they must code as -1
    queries = data.draw(
        st.lists(st.tuples(*[st.sampled_from("abcdef") for _ in range(arity)]), max_size=10)
    )
    instances = [Instance(feats, "X") for feats in rows]
    index = _ModelIndex.build(uniform_model(instances))
    codes, matrix, encoded = per_cell_index(instances, queries)
    assert [list(c.items()) for c in index.codes] == [list(c.items()) for c in codes]
    assert index.matrix.dtype == matrix.dtype and np.array_equal(index.matrix, matrix)
    got = index.encode_queries(queries)
    assert got.dtype == encoded.dtype and np.array_equal(got, encoded)
    # coded queries translate to the same codes as their strings
    if queries:
        coded = InstanceBase.from_columns(list(zip(*queries)), ["X"] * len(queries))
        got = index.encode_queries(coded)
        assert got.dtype == encoded.dtype and np.array_equal(got, encoded)


def test_coded_queries_check_arity():
    model = train([Instance(("a", "b"), "X"), Instance(("b", "a"), "Y")])
    queries = InstanceBase.from_columns([["a"]], ["X"])
    with pytest.raises(DomainError, match="query arity 1 at index 0"):
        classify_labels(model, queries)
    assert classify_labels(model, InstanceBase.from_columns([[], []], [])) == []
