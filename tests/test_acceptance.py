"""Acceptance suite: one test per headline criterion, one printed verdict line each.

Absolute benchmark scores from the original newswire corpora are out of reach
without that licensed data; these criteria instead pin the behaviors that are
checkable at desk scale (exact codec tables, worked numeric examples, oracle
equivalences, statistical properties, leak-freedom, end-to-end qualitative
claims).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

import numpy as np

from mbparse.combine import (
    CombineMethod,
    CombinerWeights,
    SystemOutputs,
    fit_weights,
    majority_vote,
    vote,
)
from mbparse.evaluate import EvalConfig, bootstrap, f_beta, score
from mbparse.features import parse_template
from mbparse.folds import LeakMode, assert_leak_free, build_fold_plan, run_two_phase_cv
from mbparse.learner import Instance, LearnerConfig, gain_ratio_weights
from mbparse.pipeline import (
    PipelineConfig,
    chunk_corpus_detail,
    train_chunker,
    train_full_parser,
)
from mbparse.schemes import (
    ChunkSpan,
    Scheme,
    balance_brackets,
    balance_clauses,
    convert,
    decode,
    encode,
)
from mbparse.synth import np_chunk_corpus, parse_corpus
from mbparse.xor import _build_rows, xor_run
from references import IO_SCHEMES, corpus_sections, parse_full_levels


def finish(name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{name}: " + "; ".join(failures)


# -- criterion 1: exclusive-or robustness curve ------------------------------


def test_xor_random_feature_curve():
    """Target curve: perfect at zero added random features, below perfect at
    one and from three extras on, near chance by ten, never rising.

    The curve runs at k=1.  At zero extras the degenerate-weight fallback
    gives uniform weights, so a query's nearest distance set is its 100 exact
    copies and the answer is exactly 400.  At k=3 the three nearest sets hold
    100 same-label, 200 opposite-label and 100 same-label rows, and the vote
    ties at 200/200 (pinned in ``test_xor.py``).

    At one extra the source's anchor of 400 is out of reach for the
    documented gain-ratio weighting at any k.  Each value of each exclusive-or
    input covers 100 rows of each label, so both inputs get weight exactly
    0.0 (checked directly below).  Once the random bit has any positive
    weight, the prediction ignores the two inputs that decide the label, and
    the expected count is 200 + 200 * P(fallback fires): about 204-212 at
    k=1.  Other settings that reach 400 at one extra (uniform weights with
    k=1, inverse-distance votes or the 3 nearest instances) stay near 400 up
    to three extras and end at 340-380 at ten, so they fail the anchors from
    three extras on and at ten.  That anchor is therefore "below 400".

    The trend check makes ten one-sided comparisons along a curve that is
    flat at chance from two extras on.  In expectation it cannot rise,
    because P(fallback) falls as features are added, so each step's slack is
    the Bonferroni z of 3.09 (at most 1% false alarms over the family of ten)
    times the standard error of the difference.
    """
    failures = []
    t0 = time.time()
    runs = 200
    rng = np.random.default_rng(2024)
    samples = {
        m: np.array([xor_run(rng, m, k=1) for _ in range(runs)], dtype=float)
        for m in range(11)
    }
    elapsed = time.time() - t0
    means = {m: float(s.mean()) for m, s in samples.items()}
    errs = {m: float(s.std(ddof=1)) / math.sqrt(runs) for m, s in samples.items()}
    print("  xor means:", {m: round(v, 1) for m, v in means.items()})

    if means[0] != 400.0:
        failures.append(f"mean at 0 extra features is {means[0]:.2f}, required 400")
    if not means[1] < 400.0:
        failures.append(f"mean at 1 extra feature is {means[1]:.2f}, not < 400")
    one_extra = _build_rows(np.random.default_rng(2024), 1)
    input_weights = gain_ratio_weights(one_extra).weights[:2]
    if input_weights != (0.0, 0.0):
        failures.append(
            f"exclusive-or input weights at 1 extra feature are {input_weights}, "
            "required (0.0, 0.0)"
        )
    for m in range(3, 11):
        if not means[m] < 400.0:
            failures.append(f"mean at {m} extra features is {means[m]:.2f}, not < 400")
    if not 190.0 <= means[10] <= 260.0:
        failures.append(f"mean at 10 extra features is {means[10]:.2f}, outside [190, 260]")

    # trend: non-increasing within a family-wise 1% slack at each step
    z = 3.09
    for m in range(10):
        slack = z * math.hypot(errs[m], errs[m + 1])
        if means[m + 1] > means[m] + slack:
            failures.append(
                f"trend rises from {means[m]:.2f} to {means[m + 1]:.2f} "
                f"at {m + 1} extras (allowed slack {slack:.2f})"
            )
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds one minute")
    finish("xor-curve", failures)


# -- criterion 2: F-beta identities ------------------------------------------


def test_f_beta_identities():
    failures = []
    if abs(f_beta(94.01, 92.67) - 93.34) >= 0.005:
        failures.append("noun-phrase headline F mismatch")
    if abs(f_beta(94.04, 91.00) - 92.50) >= 0.005:
        failures.append("arbitrary-chunking headline F mismatch")
    rows = [
        ("ADJP", 85.25, 59.36, 69.99, 0.005),
        ("ADVP", 85.03, 71.48, 77.67, 0.005),
        ("CONJP", 42.86, 33.33, 37.50, 0.005),
        ("INTJ", 100.00, 50.00, 66.67, 0.005),
        ("LST", 0.00, 0.00, 0.00, 0.005),
        ("NP", 94.14, 92.34, 93.23, 0.005),
        ("PP", 96.45, 96.59, 96.52, 0.005),
        ("PRT", 79.49, 58.49, 67.39, 0.005),
        # printed P/R are double-rounded; worst-case propagation is 0.0101 and
        # this row's recomputed F sits 0.0058 from the printed one
        ("SBAR", 89.81, 72.52, 80.25, 0.0102),
        ("VP", 93.97, 91.35, 92.64, 0.005),
        ("all", 94.04, 91.00, 92.50, 0.005),
    ]
    for name, p, r, f, tol in rows:
        got = f_beta(p, r)
        if abs(got - f) >= tol:
            failures.append(f"{name}: F({p}, {r}) = {got:.4f}, printed {f}")
    finish("f-beta-identities", failures)


# -- criterion 3: tag-scheme golden table and round trips ---------------------


GOLDEN = {
    Scheme.IOB1: "O I I O I I B O I O O O I I B I O",
    Scheme.IOB2: "O B I O B I B O B O O O B I B I O",
    Scheme.IOE1: "O I I O I E I O I O O O I E I I O",
    Scheme.IOE2: "O I E O I E E O E O O O I E I E O",
    Scheme.O:    ". ( . . ( . ( . ( . . . ( . ( . .",
    Scheme.C:    ". . ) . . ) ) . ) . . . . ) . ) .",
}
GOLDEN_SPANS = [
    ChunkSpan(1, 2), ChunkSpan(4, 5), ChunkSpan(6, 6),
    ChunkSpan(8, 8), ChunkSpan(12, 13), ChunkSpan(14, 15),
]


def random_flat_spans(rng, length, typed):
    types = ["NP", "VP", "PP"] if typed else ["NP"]
    spans, i = [], 0
    while i < length:
        if rng.random() < 0.4:
            end = min(length - 1, i + rng.randint(0, 3))
            spans.append(ChunkSpan(i, end, rng.choice(types)))
            i = end + 1
        else:
            i += 1
    return spans


def test_tag_scheme_golden_table_and_round_trips():
    failures = []
    for scheme, row in GOLDEN.items():
        got = " ".join(encode(GOLDEN_SPANS, scheme, 17, typed=False))
        if got != row:
            failures.append(f"encode {scheme.value}: {got!r}")
    for dst, row in GOLDEN.items():
        src_tags = GOLDEN[Scheme.IOB1].split()
        got = " ".join(convert(src_tags, Scheme.IOB1, dst))
        if got != row:
            failures.append(f"convert IOB1->{dst.value}: {got!r}")

    rng = random.Random(31)
    cases = 10_000
    for scheme in list(IO_SCHEMES) + [Scheme.OC]:
        bad = 0
        for _ in range(cases):
            n = rng.randint(1, 14)
            typed = rng.random() < 0.5
            spans = random_flat_spans(rng, n, typed)
            tags = encode(spans, scheme, n, typed=typed)
            if decode(tags, scheme) != sorted(spans):
                bad += 1
        if bad:
            failures.append(f"{scheme.value}: {bad}/{cases} round trips failed")
    finish("tag-scheme-table", failures)


# -- criterion 4: combination worked examples ---------------------------------


def test_combination_worked_examples():
    failures = []
    table = [
        (("0", "0", "0", "0", "0"), "0"),
        (("1", "1", "1", "1", "1"), "1"),
        (("0", "0", "0", "0", "0"), "0"),
        (("1", "0", "1", "1", "1"), "1"),
        (("0", "0", "1", "0", "0"), "0"),
        (("1", "1", "1", "1", "0"), "1"),
        (("1", "0", "0", "0", "0"), "0"),
        (("1", "1", "1", "0", "1"), "1"),
    ]
    for i, (outputs, gold) in enumerate(table, 1):
        if majority_vote(outputs) != gold:
            failures.append(f"majority wrong on pattern {i}")

    # precision-recall worked example: fit from data shaped to the quoted
    # rates, then check both the fitted weights and the vote
    s1 = ("v1",) * 10 + ("v2",) * 10
    g1 = ("v1",) * 9 + ("v2",) + ("v2",) * 8 + ("v1",) * 2
    tuning = SystemOutputs(systems=(s1,), gold=g1)
    w = fit_weights(tuning, CombineMethod.PRECISION_RECALL)
    if abs(w.precision[(0, "v1")] - 0.9) > 1e-9:
        failures.append("fitted precision(s1, v1) != 0.9")
    if abs(w.recall[(0, "v1")] - 9 / 11) > 1e-9:
        failures.append("fitted recall(s1, v1) wrong")

    w2 = CombinerWeights(CombineMethod.PRECISION_RECALL)
    w2.precision[(0, "v1")] = 0.9
    w2.recall[(1, "v1")] = 0.5
    w2.precision[(1, "v2")] = 0.6
    w2.recall[(0, "v2")] = 0.8
    score_v1 = w2.precision[(0, "v1")] + (1 - w2.recall[(1, "v1")])
    score_v2 = w2.precision[(1, "v2")] + (1 - w2.recall[(0, "v2")])
    if abs(score_v1 - 1.4) > 1e-9 or abs(score_v2 - 0.8) > 1e-9:
        failures.append("hand-derived precision-recall scores drifted")
    if vote(("v1", "v2"), w2, CombineMethod.PRECISION_RECALL) != "v1":
        failures.append("precision-recall vote did not pick v1")

    # pair-conditioned distribution: 20/70/10 split
    sa = ("v1",) * 10
    sb = ("v2",) * 10
    gold = ("v1", "v1") + ("v2",) * 7 + ("v3",)
    wp = fit_weights(SystemOutputs(systems=(sa, sb), gold=gold), CombineMethod.TAG_PAIR)
    dist = wp.pair_cond[(0, 1, "v1", "v2")]
    for tag, expected in (("v1", 0.2), ("v2", 0.7), ("v3", 0.1)):
        if abs(dist.get(tag, 0.0) - expected) > 1e-9:
            failures.append(f"pair distribution {tag} = {dist.get(tag)}, want {expected}")
    wq = CombinerWeights(CombineMethod.TAG_PAIR)
    wq.pair_cond[(0, 1, "v1", "v2")] = {"v1": 0.3, "v2": 0.3, "v3": 0.4}
    if vote(("v1", "v2"), wq, CombineMethod.TAG_PAIR) != "v3":
        failures.append("pair-conditioned vote cannot pick an unvoted tag")
    finish("combination-examples", failures)


# -- criterion 5: weight oracle equivalence -----------------------------------


def brute_force_weights(dataset):
    n = len(dataset)
    labels = [inst.label for inst in dataset]

    def h(values):
        out = 0.0
        for v in set(values):
            p = values.count(v) / len(values)
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


def test_gain_ratio_oracle_equivalence():
    failures = []
    rng = random.Random(17)
    cases = 10_000
    worst = 0.0
    for _ in range(cases):
        arity = rng.randint(1, 3)
        size = rng.randint(1, 20)
        dataset = [
            Instance(
                tuple(rng.choice("01") for _ in range(arity)), rng.choice("01")
            )
            for _ in range(size)
        ]
        got = gain_ratio_weights(dataset).weights
        want = brute_force_weights(dataset)
        gap = max(abs(a - b) for a, b in zip(got, want))
        worst = max(worst, gap)
        if gap >= 1e-9:
            failures.append(f"disagreement {gap:.2e} on {dataset[:3]}...")
            break
    print(f"  worst oracle gap over {cases} datasets: {worst:.2e}")
    finish("gain-ratio-oracle", failures)


# -- criterion 6: bracket and clause balancing --------------------------------


def test_balancing():
    failures = []
    # ( a ( b c ) d )  ->  only (b c) survives
    got = balance_brackets(["X", "X", None, None], [None, None, "X", "X"])
    if got != [ChunkSpan(1, 2, "X")]:
        failures.append(f"nesting repair produced {got}")

    # four nested clauses recovered from oracle bracket positions
    pairs = [(s.start, s.end) for s in balance_clauses({0, 3, 5, 7}, [4, 11, 11, 12], 13)]
    if pairs != [(0, 12), (3, 4), (5, 11), (7, 11)]:
        failures.append(f"four-clause sentence gave {pairs}")

    rng = random.Random(5)
    cases = 100_000
    bad = 0
    for _ in range(cases):
        n = rng.randint(1, 12)
        opens = {rng.randrange(n) for _ in range(rng.randint(0, 4))}
        closes = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        spans = [(s.start, s.end) for s in balance_clauses(opens, closes, n)]
        ok = all(0 <= s <= e < n and s in opens for s, e in spans)
        for a in spans:
            for b in spans:
                if a == b:
                    continue
                disjoint = a[1] < b[0] or b[1] < a[0]
                nested = (a[0] <= b[0] and b[1] <= a[1]) or (
                    b[0] <= a[0] and a[1] <= b[1]
                )
                ok = ok and (disjoint or nested)
        if not ok:
            bad += 1
    if bad:
        failures.append(f"{bad}/{cases} clause balancings were not proper nestings")
    finish("balancing", failures)


# -- criterion 7: bootstrap statistics ----------------------------------------


def fixed_bootstrap_corpus():
    """A frozen 400-sentence output/gold pair with scattered errors."""
    rng = random.Random(99)
    found, gold = [], []
    for _ in range(400):
        n = rng.randint(4, 10)
        spans = []
        i = 0
        while i < n:
            if rng.random() < 0.5:
                end = min(n - 1, i + rng.randint(0, 2))
                spans.append(ChunkSpan(i, end, "NP"))
                i = end + 2
            else:
                i += 1
        gold.append(spans)
        mine = list(spans)
        if mine and rng.random() < 0.25:  # drop or shift one span
            j = rng.randrange(len(mine))
            if rng.random() < 0.5:
                mine.pop(j)
            else:
                s = mine[j]
                mine[j] = ChunkSpan(s.start, min(n - 1, s.end + 1), s.type)
        found.append(mine)
    return found, gold


def test_bootstrap_statistics():
    failures = []
    found, gold = fixed_bootstrap_corpus()
    cfg = EvalConfig(bootstrap_samples=10_000, seed=7)
    rep = bootstrap(found, gold, cfg)
    print(
        f"  point {rep.point:.3f} mean {rep.mean:.3f} stddev {rep.stddev:.3f} "
        f"bounds [{rep.lower:.3f}, {rep.upper:.3f}]"
    )
    tol = 3 * rep.stddev / math.sqrt(cfg.bootstrap_samples)
    if abs(rep.mean - rep.point) >= tol:
        failures.append(
            f"bootstrap mean {rep.mean:.4f} vs point {rep.point:.4f} "
            f"beyond 3*sigma/sqrt(N) = {tol:.4f}"
        )
    if bootstrap(found, gold, cfg) != rep:
        failures.append("bootstrap not deterministic under a fixed seed")

    same = [[ChunkSpan(0, 1, "NP")]] * 8
    zero = bootstrap(same, same, EvalConfig(bootstrap_samples=2_000, seed=3))
    if zero.stddev != 0.0 or zero.lower != zero.upper != 100.0:
        failures.append("zero-variance corpus did not give stddev 0 and flat bounds")
    finish("bootstrap", failures)


# -- criterion 8: leak-freedom ------------------------------------------------


def test_leak_freedom_ten_sections():
    failures = []
    secs = corpus_sections(10, 5, seed=61)
    sections = [s for s, _ in secs]
    gold = [g for _, g in secs]
    for mode in LeakMode:
        plan = build_fold_plan(10, mode)
        try:
            assert_leak_free(plan)
        except AssertionError as exc:
            failures.append(f"{mode.value} plan: {exc}")
            continue
        try:
            results = run_two_phase_cv(
                sections,
                gold,
                Scheme.IOB1,
                parse_template("w[-1..1] p[-1..1]"),
                parse_template("w[0] p[-1..1] c[-1,1]"),
                LearnerConfig(k=3),
                plan,
            )
        except AssertionError as exc:
            failures.append(f"{mode.value} run: {exc}")
            continue
        for x, result in results.items():
            if x in result.provenance:
                failures.append(f"{mode.value}: section {x} in its own provenance")
            if result.provenance != frozenset(range(10)) - {x}:
                failures.append(f"{mode.value}: unexpected provenance for {x}")
    finish("leak-freedom", failures)


# -- criterion 9: end-to-end ensemble and cascade ------------------------------

# Per-representation feature sets frozen as acceptance data from an earlier
# greedy cross-validated selection run on the bundled training corpus; no
# selector in the repository reproduces them today.
TUNED_PASS1 = {
    Scheme.IOB1: "w[-2..0] p[-2..2]",
    Scheme.IOE2: "w[0..1] p[-3..2]",
    Scheme.O: "w[-1..1] p[-3,-2,-1,0,3]",
    Scheme.C: "w[0..1] p[-2..3]",
}


def bundled_np_config():
    pass1 = dict(PipelineConfig().pass1_templates)
    pass2 = dict(PipelineConfig().pass2_templates)
    for scheme, text in TUNED_PASS1.items():
        pass1[scheme] = parse_template(text)
        pass2[scheme] = parse_template(text + " c[-2,-1,1,2]")
    return PipelineConfig(pass1_templates=pass1, pass2_templates=pass2)


def test_end_to_end_ensemble_and_cascade():
    failures = []
    train_s, train_g = np_chunk_corpus(300, seed=4, pos_noise=0.08)
    test_s, test_g = np_chunk_corpus(200, seed=1004, pos_noise=0.08)
    chunker = train_chunker(train_s, train_g, bundled_np_config())
    combined, per_rep = chunk_corpus_detail(chunker, test_s)
    combined_f = score(combined, test_g).f
    individual = {rep.value: score(spans, test_g).f for rep, spans in per_rep.items()}
    print(f"  combined F {combined_f:.2f}; individual {individual}")
    best = max(individual.values())
    if combined_f < best:
        failures.append(
            f"combined F {combined_f:.2f} below best individual {best:.2f}"
        )

    ptrain = parse_corpus(120, seed=8)
    ptest = parse_corpus(60, seed=1008)
    parser = train_full_parser(ptrain[0], ptrain[1])
    snapshots = parse_full_levels(ptest[0], parser)
    recalls = [score(snap, ptest[1]).recall for snap in snapshots]
    print(f"  per-level recalls: {[round(r, 2) for r in recalls]}")
    for a, b in zip(recalls, recalls[1:]):
        if b < a - 1e-9:
            failures.append(f"recall dropped from {a:.2f} to {b:.2f} across levels")
    finish("end-to-end", failures)
