import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.errors import DomainError
from mbparse.evaluate import (
    BootstrapReport,
    EvalConfig,
    bootstrap,
    f_beta,
    format_report,
    report_lines,
    score,
)
from mbparse.schemes import ChunkSpan

# Published per-type precision/recall/F rows for an arbitrary-chunking run.
# The printed P and R are rounded to two decimals, so the recomputed F can
# drift from the printed F by up to ~0.0101 (input rounding plus display
# rounding); the SBAR row is the one case that lands beyond 0.005.
PER_TYPE_ROWS = [
    ("ADJP", 85.25, 59.36, 69.99, 0.005),
    ("ADVP", 85.03, 71.48, 77.67, 0.005),
    ("CONJP", 42.86, 33.33, 37.50, 0.005),
    ("INTJ", 100.00, 50.00, 66.67, 0.005),
    ("LST", 0.00, 0.00, 0.00, 0.005),
    ("NP", 94.14, 92.34, 93.23, 0.005),
    ("PP", 96.45, 96.59, 96.52, 0.005),
    ("PRT", 79.49, 58.49, 67.39, 0.005),
    ("SBAR", 89.81, 72.52, 80.25, 0.0102),
    ("VP", 93.97, 91.35, 92.64, 0.005),
    ("all", 94.04, 91.00, 92.50, 0.005),
]


class TestFBeta:
    def test_np_chunking_headline(self):
        assert abs(f_beta(94.01, 92.67) - 93.34) < 0.005

    def test_arbitrary_chunking_headline(self):
        assert abs(f_beta(94.04, 91.00) - 92.50) < 0.005

    @pytest.mark.parametrize("name,p,r,f,tol", PER_TYPE_ROWS)
    def test_per_type_rows(self, name, p, r, f, tol):
        assert abs(f_beta(p, r) - f) < tol

    def test_symmetric_at_beta_one(self):
        assert f_beta(80.0, 60.0) == f_beta(60.0, 80.0)

    def test_beta_weighting(self):
        assert f_beta(90.0, 50.0, beta=2.0) < f_beta(90.0, 50.0, beta=0.5)

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0) == 0.0


def spans(*triples):
    return [ChunkSpan(s, e, t) for s, e, t in triples]


class TestScore:
    def test_exact_match(self):
        gold = [spans((1, 2, "NP"), (4, 5, "NP"))]
        r = score(gold, gold)
        assert (r.precision, r.recall, r.f) == (100.0, 100.0, 100.0)

    def test_hand_counted(self):
        found = [spans((1, 2, "NP"), (4, 5, "NP"))]
        gold = [spans((1, 2, "NP"), (4, 6, "NP"))]
        r = score(found, gold)
        assert (r.precision, r.recall, r.f) == (50.0, 50.0, 50.0)

    def test_type_must_match(self):
        found = [spans((1, 2, "VP"))]
        gold = [spans((1, 2, "NP"))]
        assert score(found, gold).correct == 0

    def test_misaligned(self):
        with pytest.raises(DomainError):
            score([[]], [[], []])

    def test_zero_conventions(self):
        r = score([[]], [spans((0, 1, "NP"))])
        assert (r.precision, r.recall, r.f) == (0.0, 0.0, 0.0)
        r2 = score([spans((0, 1, "NP"))], [[]])
        assert (r2.precision, r2.recall, r2.f) == (0.0, 0.0, 0.0)

    def test_per_type_rows_and_sums(self):
        found = [spans((0, 1, "NP"), (3, 3, "VP"), (5, 6, "PP"))]
        gold = [spans((0, 1, "NP"), (3, 4, "VP"), (5, 6, "PP"))]
        r = score(found, gold)
        per_type = score(found, gold).per_type
        assert per_type["NP"].f == 100.0
        assert per_type["VP"].f == 0.0
        assert sum(t.correct for t in per_type.values()) == r.correct
        assert sum(t.found for t in per_type.values()) == r.found
        assert sum(t.gold for t in per_type.values()) == r.gold

    def test_single_type_equals_overall(self):
        found = [spans((0, 1, "NP")), spans((2, 3, "NP"))]
        gold = [spans((0, 1, "NP")), spans((2, 4, "NP"))]
        r = score(found, gold)
        row = score(found, gold).per_type["NP"]
        assert (row.precision, row.recall, row.f) == (r.precision, r.recall, r.f)


def random_corpus(rng, sentences=30):
    found, gold = [], []
    for _ in range(sentences):
        n = rng.randint(1, 10)
        def sample():
            out = []
            i = 0
            while i < n:
                if rng.random() < 0.5:
                    end = min(n - 1, i + rng.randint(0, 2))
                    out.append(ChunkSpan(i, end, rng.choice(["NP", "VP"])))
                    i = end + 1
                else:
                    i += 1
            return out
        found.append(sample())
        gold.append(sample())
    return found, gold


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_harmonic_identity_and_permutation_invariance(rng):
    found, gold = random_corpus(rng, sentences=10)
    r = score(found, gold)
    if r.found + r.gold:
        identity = 200.0 * r.correct / (r.found + r.gold)
        assert abs(r.f - identity) < 1e-9
    order = list(range(len(found)))
    rng.shuffle(order)
    r2 = score([found[i] for i in order], [gold[i] for i in order])
    assert (r2.found, r2.correct, r2.gold) == (r.found, r.correct, r.gold)


class TestBootstrap:
    def test_zero_variance(self):
        found = [spans((0, 1, "NP"))] * 6
        r = bootstrap(found, found, EvalConfig(bootstrap_samples=500, seed=3))
        assert r.stddev == 0.0
        assert r.mean == r.lower == r.upper == r.point == 100.0

    def test_deterministic(self):
        rng = random.Random(8)
        found, gold = random_corpus(rng)
        cfg = EvalConfig(bootstrap_samples=800, seed=42)
        a = bootstrap(found, gold, cfg)
        b = bootstrap(found, gold, cfg)
        assert a == b

    def test_quantile_definition(self):
        rng = random.Random(4)
        found, gold = random_corpus(rng, sentences=50)
        cfg = EvalConfig(bootstrap_samples=2000, seed=7, tail=0.05)
        r = bootstrap(found, gold, cfg)
        # recompute the sample distribution to check the order statistics
        per_sent = [
            score([f], [g]) for f, g in zip(found, gold)
        ]
        gen = np.random.default_rng(7)
        n = len(found)
        counts = np.array([(x.found, x.correct, x.gold) for x in per_sent])
        fs = []
        for _ in range(2000):
            idx = gen.integers(0, n, size=n)
            f, c, g = counts[idx].sum(axis=0)
            p = 100.0 * c / f if f else 0.0
            rc = 100.0 * c / g if g else 0.0
            fs.append(2 * p * rc / (p + rc) if p + rc else 0.0)
        fs = np.sort(np.asarray(fs))
        strictly_below = (fs < r.lower - 1e-12).sum()
        strictly_above = (fs > r.upper + 1e-12).sum()
        assert strictly_below <= 0.05 * len(fs)
        assert strictly_above <= 0.05 * len(fs)

    def test_mean_tracks_point_score(self):
        rng = random.Random(12)
        found, gold = random_corpus(rng, sentences=120)
        r = bootstrap(found, gold, EvalConfig(bootstrap_samples=4000, seed=5))
        tol = max(3 * r.stddev / (4000 ** 0.5), 1e-6) + 0.15  # allow resampling bias
        assert abs(r.mean - r.point) < tol

    def test_needs_a_sentence(self):
        with pytest.raises(DomainError):
            bootstrap([], [], EvalConfig())

    def test_empty_sentences_are_kept(self):
        found = [spans((0, 0, "NP")), []]
        gold = [spans((0, 0, "NP")), []]
        r = bootstrap(found, gold, EvalConfig(bootstrap_samples=200, seed=1))
        assert isinstance(r, BootstrapReport)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(beta=0)
        with pytest.raises(DomainError):
            EvalConfig(tail=0.5)
        with pytest.raises(DomainError):
            EvalConfig(bootstrap_samples=0)


class TestReports:
    def test_format_report_layout(self):
        found = [spans((0, 1, "NP"), (3, 3, "VP"))]
        gold = [spans((0, 1, "NP"), (3, 3, "VP"))]
        text = format_report(score(found, gold))
        lines = text.splitlines()
        assert lines[0].split() == ["precision", "recall", "F", "found", "gold"]
        assert lines[-1].startswith("all")
        assert any(line.startswith("NP") for line in lines)

    def test_machine_lines(self):
        found = [spans((0, 1, "NP"))]
        lines = report_lines(score(found, found))
        assert lines[-1] == "all\t100.00\t100.00\t100.00"
        assert lines[0] == "NP\t100.00\t100.00\t100.00"
