import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.combine import (
    CombineMethod,
    CombinerWeights,
    SystemOutputs,
    build_stacked_instances,
    fit_weights,
    majority_vote,
    vote,
    vote_sequence,
)
from mbparse.errors import DomainError
from mbparse.learner import Instance

# Five binary classifiers over eight patterns; the majority of the five is
# right everywhere although each measures one mistake.
TABLE = [
    (("0", "0", "0", "0", "0"), "0"),
    (("1", "1", "1", "1", "1"), "1"),
    (("0", "0", "0", "0", "0"), "0"),
    (("1", "0", "1", "1", "1"), "1"),
    (("0", "0", "1", "0", "0"), "0"),
    (("1", "1", "1", "1", "0"), "1"),
    (("1", "0", "0", "0", "0"), "0"),
    (("1", "1", "1", "0", "1"), "1"),
]


class TestMajority:
    def test_pattern_four(self):
        assert majority_vote(("1", "0", "1", "1", "1")) == "1"

    def test_pattern_seven(self):
        assert majority_vote(("1", "0", "0", "0", "0")) == "0"

    def test_unanimous(self):
        assert majority_vote(("x", "x", "x")) == "x"

    def test_whole_table(self):
        for outputs, gold in TABLE:
            assert majority_vote(outputs) == gold

    def test_tie_prefers_earlier_system(self):
        assert majority_vote(("b", "a")) == "b"

    def test_empty(self):
        with pytest.raises(DomainError):
            majority_vote(())


class TestFitWeights:
    def test_majority_needs_no_tuning(self):
        w = fit_weights(SystemOutputs(systems=(("a",),)), CombineMethod.MAJORITY)
        assert w.method is CombineMethod.MAJORITY

    def test_other_methods_require_gold(self):
        outputs = SystemOutputs(systems=(("a", "b"),))
        for method in (
            CombineMethod.TOT_PRECISION,
            CombineMethod.TAG_PRECISION,
            CombineMethod.PRECISION_RECALL,
            CombineMethod.TAG_PAIR,
        ):
            with pytest.raises(DomainError):
                fit_weights(outputs, method)

    def test_perfect_system_accuracy_one(self):
        tuning = SystemOutputs(systems=(("a", "b", "a"),), gold=("a", "b", "a"))
        w = fit_weights(tuning, CombineMethod.TOT_PRECISION)
        assert w.accuracy[0] == 1.0

    def test_tagpair_worked_distribution(self):
        # pair (v1, v2) seen ten times: gold v1 twice, v2 seven times, v3 once
        s1 = ("v1",) * 10
        s2 = ("v2",) * 10
        gold = ("v1", "v1") + ("v2",) * 7 + ("v3",)
        w = fit_weights(SystemOutputs(systems=(s1, s2), gold=gold), CombineMethod.TAG_PAIR)
        dist = w.pair_cond[(0, 1, "v1", "v2")]
        assert abs(dist["v1"] - 0.2) < 1e-9
        assert abs(dist["v2"] - 0.7) < 1e-9
        assert abs(dist["v3"] - 0.1) < 1e-9

    def test_identical_systems_concentrate_on_diagonal(self):
        tags = ("a", "b", "a", "c", "b", "b", "a", "c", "a", "b")
        tuning = SystemOutputs(systems=(tags, tags), gold=tags)
        w = fit_weights(tuning, CombineMethod.TAG_PAIR)
        for (i, j, vi, vj), dist in w.pair_cond.items():
            assert vi == vj
            assert dist == {vi: 1.0}

    def test_precision_recall_counting(self):
        s1 = ("a", "a", "b", "b")
        gold = ("a", "b", "b", "b")
        w = fit_weights(SystemOutputs(systems=(s1,), gold=gold), CombineMethod.PRECISION_RECALL)
        assert w.precision[(0, "a")] == 0.5
        assert w.precision[(0, "b")] == 1.0
        assert w.recall[(0, "a")] == 1.0
        assert abs(w.recall[(0, "b")] - 2 / 3) < 1e-9

    def test_probabilities_in_unit_interval(self):
        import random

        rng = random.Random(3)
        n = 60
        systems = tuple(
            tuple(rng.choice("abc") for _ in range(n)) for _ in range(3)
        )
        gold = tuple(rng.choice("abc") for _ in range(n))
        tuning = SystemOutputs(systems=systems, gold=gold)
        for method in (CombineMethod.TAG_PRECISION, CombineMethod.PRECISION_RECALL):
            w = fit_weights(tuning, method)
            assert all(0 <= v <= 1 for v in w.precision.values())
            assert all(0 <= v <= 1 for v in w.recall.values())
        w = fit_weights(tuning, CombineMethod.TAG_PAIR)
        for dist in w.pair_cond.values():
            assert abs(sum(dist.values()) - 1.0) < 1e-9


class TestVote:
    def test_single_system_every_method(self):
        tuning = SystemOutputs(systems=(("a", "b", "a"),), gold=("a", "b", "a"))
        for method in CombineMethod:
            w = (
                CombinerWeights(method=method)
                if method is CombineMethod.MAJORITY
                else fit_weights(tuning, method)
            )
            assert vote(("a",), w, method) == "a"

    def test_precision_recall_worked_example(self):
        w = CombinerWeights(CombineMethod.PRECISION_RECALL)
        w.precision[(0, "v1")] = 0.9
        w.recall[(1, "v1")] = 0.5
        w.precision[(1, "v2")] = 0.6
        w.recall[(0, "v2")] = 0.8
        # v1: 0.9 + (1 - 0.5) = 1.4   v2: 0.6 + (1 - 0.8) = 0.8
        assert vote(("v1", "v2"), w, CombineMethod.PRECISION_RECALL) == "v1"

    def test_tagpair_can_pick_unvoted_tag(self):
        w = CombinerWeights(CombineMethod.TAG_PAIR)
        w.pair_cond[(0, 1, "v1", "v2")] = {"v1": 0.3, "v2": 0.3, "v3": 0.4}
        assert vote(("v1", "v2"), w, CombineMethod.TAG_PAIR) == "v3"

    def test_tagpair_unseen_pair_backs_off(self):
        w = CombinerWeights(CombineMethod.TAG_PAIR)
        w.base_freq = {"x": 0.8, "y": 0.2}
        assert vote(("y", "y"), w, CombineMethod.TAG_PAIR) == "x"

    def test_unseen_system_tag_scores_zero(self):
        w = CombinerWeights(CombineMethod.TAG_PRECISION)
        w.precision[(0, "a")] = 0.4
        # system 1's tag "b" never seen in tuning: contributes nothing
        assert vote(("a", "b"), w, CombineMethod.TAG_PRECISION) == "a"

    def test_vote_sequence_elementwise(self):
        w = CombinerWeights(CombineMethod.MAJORITY)
        outputs = SystemOutputs(systems=(("a", "b"), ("a", "c"), ("d", "c")))
        assert vote_sequence(outputs, w, CombineMethod.MAJORITY) == ["a", "c"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_accuracies_make_totprecision_majority(data):
    n_systems = data.draw(st.integers(1, 5))
    outputs = tuple(data.draw(st.sampled_from("abc")) for _ in range(n_systems))
    w = CombinerWeights(CombineMethod.TOT_PRECISION)
    for s in range(n_systems):
        w.accuracy[s] = 0.7
    assert vote(outputs, w, CombineMethod.TOT_PRECISION) == majority_vote(outputs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("ab"), min_size=4, max_size=30))
def test_identical_systems_return_common_output(tags):
    gold = tuple(tags)
    tuning = SystemOutputs(systems=(gold, gold, gold), gold=gold)
    for method in CombineMethod:
        w = (
            CombinerWeights(method=method)
            if method is CombineMethod.MAJORITY
            else fit_weights(tuning, method)
        )
        for i in range(len(gold)):
            assert vote((gold[i],) * 3, w, method) == gold[i]


class TestStackedInstances:
    def test_arity_is_system_count(self):
        outputs = SystemOutputs(
            systems=tuple(("a",) * 4 for _ in range(5)), gold=("a",) * 4
        )
        inst = build_stacked_instances(outputs)
        assert all(isinstance(i, Instance) and len(i.features) == 5 for i in inst)

    def test_context_extends_arity(self):
        outputs = SystemOutputs(
            systems=tuple(("a", "b") for _ in range(5)), gold=("a", "b")
        )
        inst = build_stacked_instances(outputs, context=[("NN", "VB")])
        assert all(len(i.features) == 6 for i in inst)
        assert inst[0].features[-1] == "NN"

    def test_no_gold_returns_queries(self):
        outputs = SystemOutputs(systems=(("a", "b"), ("c", "d")))
        vectors = build_stacked_instances(outputs)
        assert vectors == [("a", "c"), ("b", "d")]

    def test_zero_positions(self):
        outputs = SystemOutputs(systems=((), ()), gold=())
        assert build_stacked_instances(outputs) == []

    def test_misaligned_context(self):
        outputs = SystemOutputs(systems=(("a", "b"),))
        with pytest.raises(DomainError):
            build_stacked_instances(outputs, context=[("x",)])

    def test_misaligned_systems(self):
        with pytest.raises(DomainError):
            SystemOutputs(systems=(("a",), ("a", "b")))
