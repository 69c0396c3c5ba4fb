import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse import xor
from mbparse.errors import DomainError
from mbparse.learner import LearnerConfig, classify_labels, train
from mbparse.xor import _build_rows, xor_experiment, xor_run
from references import decoded_instances, decoded_rows, xor_rows


def test_deterministic_given_seed():
    a = xor_experiment(2, runs=5, seed=123)
    b = xor_experiment(2, runs=5, seed=123)
    assert a == b


def test_seed_changes_runs():
    a = xor_experiment(5, runs=5, seed=1)
    b = xor_experiment(5, runs=5, seed=2)
    assert a != b  # astronomically unlikely to collide


def test_perfect_at_zero_extra_with_k1():
    assert xor_experiment(0, runs=3, seed=9, k=1) == 400.0


def test_zero_extra_with_k3_is_exactly_half():
    # With uniform fallback weights every query's three distance sets hold
    # 200 same-label and 200 opposite-label items, so ties decide everything
    # and exactly the two patterns matching the tie-break label survive.
    assert xor_experiment(0, runs=2, seed=4, k=3) == 200.0


def test_many_random_features_near_chance():
    mean = xor_experiment(10, runs=20, seed=7, k=3)
    assert 150 <= mean <= 260


def test_single_run_counts_are_integers():
    rng = np.random.default_rng(0)
    correct = xor_run(rng, 3, k=3)
    assert 0 <= correct <= 400


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 80))
def test_coded_rows_match_string_rows(seed, extra):
    coded = _build_rows(np.random.default_rng(seed), extra)
    plain = xor_rows(np.random.default_rng(seed), extra)
    assert len(coded) == len(plain) and coded.arity == plain.arity == extra + 2
    assert [list(t.items()) for t in coded.codes] == [list(t.items()) for t in plain.codes]
    assert list(coded.classes.items()) == list(plain.classes.items())
    for mine, theirs in zip((*coded.columns, coded.label_codes),
                            (*plain.columns, plain.label_codes)):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert np.array_equal(mine, theirs)


def test_constant_column_has_one_symbol():
    class Ones:  # a generator whose every bit is 1
        def integers(self, low, high, size):
            return np.ones(size, dtype=np.int64)

    coded, plain = _build_rows(Ones(), 2), xor_rows(Ones(), 2)
    assert [list(t.items()) for t in coded.codes] == [list(t.items()) for t in plain.codes]
    assert coded.codes[2:] == ({"1": 0}, {"1": 0})
    assert all(np.array_equal(a, b) for a, b in zip(coded.columns, plain.columns))


@pytest.mark.parametrize("k", [1, 3])
def test_run_matches_classifying_every_test_row(k):
    # reference: classify all 400 test rows, duplicates included, built from
    # strings; 20 extras pass the mismatch table, 70 make a key of 9 bytes
    fast, plain = np.random.default_rng(5), np.random.default_rng(5)
    for extra in (0, 1, 2, 6, 20, 70):
        train_set = decoded_instances(xor_rows(plain, extra))
        test_set = decoded_instances(xor_rows(plain, extra))
        model = train(train_set, LearnerConfig(k=k, degenerate_weight_fallback=True))
        labels = classify_labels(model, [inst.features for inst in test_set])
        expected = sum(p == inst.label for p, inst in zip(labels, test_set))
        assert xor_run(fast, extra, k=k) == expected


def test_rows_apart_only_past_64_bits_stay_apart(monkeypatch):
    class LastBitOnly:  # random bits in the last column only
        def __init__(self):
            self.rng = np.random.default_rng(3)

        def integers(self, low, high, size):
            bits = np.zeros(size, dtype=np.int64)
            bits[:, -1] = self.rng.integers(low, high, size[0])
            return bits

    queried = []
    classify = xor.classify_labels
    monkeypatch.setattr(xor, "classify_labels",
                        lambda model, q: queried.append(decoded_rows(q)) or classify(model, q))
    correct = xor_run(LastBitOnly(), 70, k=1)
    plain = LastBitOnly()
    model = train(xor_rows(plain, 70), LearnerConfig(k=1, degenerate_weight_fallback=True))
    test_set = decoded_instances(xor_rows(plain, 70))
    distinct = {inst.features for inst in test_set}
    assert len(distinct) == 8
    assert len(queried[0]) == 8 and set(queried[0]) == distinct
    labels = classify_labels(model, [inst.features for inst in test_set])
    assert correct == sum(p == inst.label for p, inst in zip(labels, test_set))


def test_bad_arguments():
    with pytest.raises(DomainError):
        xor_experiment(-1, runs=1, seed=0)
    with pytest.raises(DomainError):
        xor_experiment(0, runs=0, seed=0)
