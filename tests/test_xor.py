import numpy as np
import pytest

from mbparse.errors import DomainError
from mbparse.learner import LearnerConfig, classify_labels, train
from mbparse.xor import _build_rows, xor_experiment, xor_run
from references import decoded_instances


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


@pytest.mark.parametrize("k", [1, 3])
def test_run_matches_classifying_every_test_row(k):
    # reference: classify all 400 test rows, duplicates included
    fast, plain = np.random.default_rng(5), np.random.default_rng(5)
    for extra in (0, 1, 2, 6):
        train_set = decoded_instances(_build_rows(plain, extra))
        test_set = decoded_instances(_build_rows(plain, extra))
        model = train(train_set, LearnerConfig(k=k, degenerate_weight_fallback=True))
        labels = classify_labels(model, [inst.features for inst in test_set])
        expected = sum(p == inst.label for p, inst in zip(labels, test_set))
        assert xor_run(fast, extra, k=k) == expected


def test_bad_arguments():
    with pytest.raises(DomainError):
        xor_experiment(-1, runs=1, seed=0)
    with pytest.raises(DomainError):
        xor_experiment(0, runs=0, seed=0)
