from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.errors import DomainError
from mbparse.features import (
    CodedCorpus,
    FeatureTemplate,
    Token,
    extract,
    format_template,
    parse_template,
    select_features,
)
from mbparse.learner import (
    PAD,
    Instance,
    InstanceBase,
    LearnerConfig,
    classify_labels,
    code_dtype,
    train,
)
from mbparse.schemes import ChunkSpan
from references import compress_mapped, corpus_tokens, decoded_rows, extract_token, np_head


def toks(*pairs):
    return [Token(w, p) for w, p in pairs]


class TestTemplates:
    def test_parse_format_round_trip(self):
        text = "w[-2..0] p[-4..3] c[-2,-1,1,2]"
        t = parse_template(text)
        assert format_template(t) == text
        assert t.arity == 3 + 8 + 4

    def test_offsets_sorted_and_deduped(self):
        t = FeatureTemplate(words=(2, -1, 2, 0))
        assert t.words == (-1, 0, 2)

    def test_chunk_focus_rejected(self):
        with pytest.raises(DomainError):
            FeatureTemplate(chunks=(0,))

    def test_offset_bound(self):
        with pytest.raises(DomainError):
            FeatureTemplate(words=(-5,))

    def test_bad_strings(self):
        for bad in ("q[0]", "w[", "w[a]", "w[3..1]"):
            with pytest.raises(DomainError):
                parse_template(bad)

    def test_empty_template(self):
        assert parse_template("") == FeatureTemplate()
        assert format_template(FeatureTemplate()) == ""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(
            st.tuples(st.sampled_from("wpc"), st.integers(-4, 4)).filter(
                lambda a: not (a[0] == "c" and a[1] == 0)
            ),
            max_size=12,
        )
    )
    def test_round_trip_random(self, atoms):
        t = FeatureTemplate.from_atoms(atoms)
        assert parse_template(format_template(t)) == t


SENT = toks(("In", "IN"), ("early", "JJ"), ("trading", "NN"))


class TestExtract:
    def test_boundary_padding(self):
        t = FeatureTemplate(words=(-1, 0, 1))
        assert extract_token(SENT, 0, t) == (PAD, "In", "early")

    def test_eight_feature_channel_order(self):
        sent = [
            Token("the", "DT", "I"),
            Token("man", "NN", "I"),
            Token("saw", "VBD", "O"),
            Token("her", "PRP", "I"),
        ]
        t = parse_template("w[-1..1] p[-1..1] c[-1,1]")
        assert extract_token(sent, 2, t) == (
            "man", "saw", "her", "NN", "VBD", "PRP", "I", "I",
        )

    def test_pos_singleton(self):
        t = FeatureTemplate(pos=(0,))
        assert extract_token(SENT, 2, t) == ("NN",)

    def test_missing_chunk_tag_pads(self):
        t = FeatureTemplate(chunks=(-1,))
        assert extract_token(SENT, 1, t) == (PAD,)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            extract_token(SENT, 3, FeatureTemplate(words=(0,)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_arity_stable(self, index, data):
        atoms = data.draw(
            st.sets(
                st.tuples(st.sampled_from("wpc"), st.integers(-4, 4)).filter(
                    lambda a: not (a[0] == "c" and a[1] == 0)
                ),
                max_size=10,
            )
        )
        t = FeatureTemplate.from_atoms(atoms)
        assert len(extract_token(SENT, index, t)) == t.arity


# The PAD symbol itself, and characters the model file format escapes or
# must carry through unescaped.
SYMBOLS = st.sampled_from(["a", "b", "c", PAD, "t\tt", "b\\s", "r\rr", "\\"])
ATOMS = st.sets(
    st.tuples(st.sampled_from("wpc"), st.integers(-4, 4)).filter(
        lambda a: not (a[0] == "c" and a[1] == 0)
    ),
    max_size=12,
)


def extract_per_token(template, sentences, context):
    """Reference: ``extract_token`` on every token, with the context tags put on
    the tokens; returns the rows and each sentence's (start, end) range."""
    rows, bounds = [], []
    for si, s in enumerate(sentences):
        if context is not None:
            s = [replace(t, chunk_tag=c) for t, c in zip(s, context[si])]
        lo = len(rows)
        rows.extend(extract_token(s, i, template) for i in range(len(s)))
        bounds.append((lo, len(rows)))
    return rows, bounds


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extract_matches_extract_token(data):
    template = FeatureTemplate.from_atoms(data.draw(ATOMS))
    token = st.builds(Token, SYMBOLS, SYMBOLS, st.none() | SYMBOLS)
    sentences = data.draw(st.lists(st.lists(token, max_size=7), max_size=5))
    context = None
    if data.draw(st.booleans()):
        context = [
            data.draw(st.lists(st.none() | SYMBOLS, min_size=len(s), max_size=len(s)))
            for s in sentences
        ]
    columns, bounds = extract(template, sentences, context)
    rows, expected_bounds = extract_per_token(template, sentences, context)
    assert decoded_rows(columns) == rows
    assert bounds == expected_bounds
    # coded exactly as the instance base of those rows would be
    base = InstanceBase.from_columns(
        [[r[i] for r in rows] for i in range(template.arity)], ["X"] * len(rows)
    )
    assert [list(c.items()) for c in columns.codes] == [list(c.items()) for c in base.codes]
    assert len(columns) == len(base) and len(columns.columns) == len(base.columns)
    for table, column, expected in zip(columns.codes, columns.columns, base.columns):
        assert column.dtype == code_dtype(len(table)) and column.ndim == 1
        assert column.flags.c_contiguous
        assert np.array_equal(column, expected)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_templates_over_one_coded_corpus_match_fresh_extractions(data):
    token = st.builds(Token, SYMBOLS, SYMBOLS, st.none() | SYMBOLS)
    # empty sentences mixed in, first and last too
    sentences = data.draw(st.lists(st.lists(token, max_size=6), max_size=6))
    whole = CodedCorpus(sentences)
    # some sentences, in any order and with repeats, taken from the codes
    index = st.integers(0, len(sentences) - 1)
    picked = data.draw(st.lists(index, max_size=8)) if sentences else []
    taken = [sentences[i] for i in picked]
    for corpus, sents in ((whole, sentences), (whole.take(picked), taken)):
        fresh_corpus = CodedCorpus(sents)
        for channel in "wpc":
            assert corpus.tags(channel) == fresh_corpus.tags(channel)
        # a chunk tag PAD reads as none
        tokens = [[replace(t, chunk_tag=None) if t.chunk_tag == PAD else t for t in s]
                  for s in sents]
        assert len(corpus) == len(sents) and corpus_tokens(corpus) == tokens
        templates = [FeatureTemplate.from_atoms(data.draw(ATOMS)) for _ in range(4)]
        seen = {}  # (channel, offset) -> the shared (code table, column)
        for template in templates:
            context = None
            if data.draw(st.booleans()):
                context = [
                    data.draw(st.lists(st.none() | SYMBOLS, min_size=len(s), max_size=len(s)))
                    for s in sents
                ]
            columns, bounds = extract(template, corpus, context)
            fresh, fresh_bounds = extract(template, sents, context)
            rows, expected_bounds = extract_per_token(template, sents, context)
            assert decoded_rows(columns) == rows
            assert bounds == fresh_bounds == expected_bounds
            assert len(columns) == len(fresh) and columns.codes == fresh.codes
            atoms = [("w", o) for o in template.words] + [("p", o) for o in template.pos]
            atoms += [("c", o) for o in template.chunks]
            for atom, table, column, expected in zip(
                atoms, columns.codes, columns.columns, fresh.columns
            ):
                assert column.dtype == code_dtype(len(table)) and column.ndim == 1
                assert not column.flags.writeable
                assert np.array_equal(column, expected)
                if atom[0] == "c" and context is not None:
                    continue  # a context channel is coded on every call
                if atom in seen:
                    assert seen[atom][0] is table and seen[atom][1] is column
                seen[atom] = table, column


class TestNpHead:
    def test_determiner_noun(self):
        assert np_head(toks(("the", "DT"), ("Exchequer", "NNP"))) == 1

    def test_no_noun_falls_to_final(self):
        assert np_head(toks(("very", "RB"), ("fast", "JJ"))) == 1

    def test_singleton(self):
        assert np_head(toks(("gold", "NN"))) == 0

    def test_first_noun_cluster_wins(self):
        sent = toks(("price", "NN"), ("index", "NN"), ("of", "IN"), ("gold", "NN"))
        assert np_head(sent) == 1

    def test_empty(self):
        with pytest.raises(DomainError):
            np_head([])


class TestCompress:
    def test_no_chunks_identity(self):
        assert compress_mapped(SENT, [])[0] == SENT

    def test_np_head_word_keeps_chunk_type_as_pos(self):
        sent = toks(("the", "DT"), ("Exchequer", "NNP"))
        out = compress_mapped(sent, [ChunkSpan(0, 1, "NP")])[0]
        assert [(t.word, t.pos) for t in out] == [("Exchequer", "NP")]

    def test_early_trading(self):
        out = compress_mapped(SENT, [ChunkSpan(1, 2, "NP")])[0]
        assert [(t.word, t.pos) for t in out] == [("In", "IN"), ("trading", "NP")]

    def test_non_np_takes_final_word(self):
        sent = toks(("has", "VBZ"), ("been", "VBN"), ("sold", "VBN"))
        out = compress_mapped(sent, [ChunkSpan(0, 2, "VP")])[0]
        assert [(t.word, t.pos) for t in out] == [("sold", "VP")]

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            compress_mapped(SENT, [ChunkSpan(0, 1, "NP"), ChunkSpan(1, 2, "NP")])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DomainError):
            compress_mapped(SENT, [ChunkSpan(2, 3, "NP")])

    def test_origins(self):
        out, origins = compress_mapped(SENT, [ChunkSpan(1, 2, "NP")])
        assert origins == [(0, 0), (1, 2)]

    def test_idempotent(self):
        out = compress_mapped(SENT, [ChunkSpan(1, 2, "NP")])[0]
        again = compress_mapped(out, [ChunkSpan(1, 1, "NP")])[0]
        assert again == out

    def test_never_longer(self):
        out = compress_mapped(SENT, [ChunkSpan(0, 2, "NP")])[0]
        assert len(out) <= len(SENT)


def xor_selection_dataset(seed=100):
    """Balanced exclusive-or rows plus two random features."""
    import random

    rng = random.Random(seed)
    rows = []
    for _ in range(50):
        for a, b, label in (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")):
            row = [
                Token(a, "F1"),
                Token(b, "F2"),
                Token(rng.choice("01"), "R1"),
                Token(rng.choice("01"), "R2"),
            ]
            rows.append((row, label))
    rng.shuffle(rows)  # keep every pattern present in every fold
    return [r for r, _ in rows], [l for _, l in rows]


def accuracy_evaluator(sentences, labels, folds=2):
    """Cross-validated accuracy of a k=1 learner over the chosen features."""

    def evaluate(template: FeatureTemplate) -> float:
        if template.arity == 0:
            return 0.0
        correct = total = 0
        for f in range(folds):
            tr = [i for i in range(len(sentences)) if i % folds != f]
            te = [i for i in range(len(sentences)) if i % folds == f]
            inst = [
                Instance(extract_token(sentences[i], 0, template), labels[i]) for i in tr
            ]
            model = train(inst, LearnerConfig(k=1))
            preds = classify_labels(
                model, [extract_token(sentences[i], 0, template) for i in te]
            )
            correct += sum(p == labels[i] for p, i in zip(preds, te))
            total += len(te)
        return correct / total

    return evaluate


class TestSelectFeatures:
    def test_single_favored_candidate(self):
        report = select_features([("w", 0)], lambda t: float(t.arity), beam=1)
        assert report.best_set == FeatureTemplate(words=(0,))

    def test_constant_evaluate_keeps_empty(self):
        report = select_features(
            [("w", 0), ("p", 1)], lambda t: 0.5, beam=2
        )
        assert report.best_set == FeatureTemplate()
        # one sweep: empty plus its two expansions
        assert len(report.score_history) == 3

    def test_search_goes_on_while_the_best_score_is_zero(self):
        # every one-feature set ties the empty set at 0, as at k=3 on a small corpus
        pair = frozenset({("w", 0), ("p", 0)})
        report = select_features(
            [("w", 0), ("p", 0), ("p", 1)], lambda t: float(t.atoms() == pair), beam=2
        )
        assert report.best_set.atoms() == pair and report.best_score == 1.0

    def test_empty_candidates(self):
        report = select_features([], lambda t: 1.0, beam=1)
        assert report.best_set == FeatureTemplate()

    def test_finds_exact_xor_pair(self):
        sentences, labels = xor_selection_dataset()
        evaluate = accuracy_evaluator(sentences, labels)
        # the relevant pair is at word offsets 0 and 1
        candidates = [("w", 0), ("w", 1), ("w", 2), ("w", 3)]
        # oracle: exhaustive evaluation of all 16 subsets
        from itertools import combinations

        best_score, best_sets = -1.0, []
        for r in range(len(candidates) + 1):
            for combo in combinations(candidates, r):
                s = evaluate(FeatureTemplate.from_atoms(combo))
                if s > best_score + 1e-12:
                    best_score, best_sets = s, [frozenset(combo)]
                elif abs(s - best_score) <= 1e-12:
                    best_sets.append(frozenset(combo))
        assert frozenset([("w", 0), ("w", 1)]) in best_sets

        report = select_features(candidates, evaluate, beam=5)
        assert report.best_set.atoms() in best_sets
        assert {("w", 0), ("w", 1)} <= set(report.best_set.atoms())

    def test_beam_one_additions_matches_forward_selection(self):
        scores = {
            frozenset(): 0.0,
            frozenset({("w", 0)}): 0.6,
            frozenset({("p", 0)}): 0.5,
            frozenset({("w", 0), ("p", 0)}): 0.8,
            frozenset({("w", 0), ("p", 1)}): 0.7,
            frozenset({("p", 0), ("p", 1)}): 0.9,  # unreachable by greedy forward
            frozenset({("p", 1)}): 0.1,
            frozenset({("w", 0), ("p", 0), ("p", 1)}): 0.75,
        }

        def evaluate(t):
            return scores.get(t.atoms(), 0.0)

        # forward-only oracle from the empty set
        frontier = frozenset()
        while True:
            options = [
                frontier | {a}
                for a in [("w", 0), ("p", 0), ("p", 1)]
                if a not in frontier
            ]
            if not options:
                break
            nxt = max(options, key=lambda s: scores.get(s, 0.0))
            if scores.get(nxt, 0.0) <= scores.get(frontier, 0.0):
                break
            frontier = nxt
        report = select_features([("w", 0), ("p", 0), ("p", 1)], evaluate, beam=1)
        assert report.best_set.atoms() == frontier  # both reach w0+p0 at 0.8

    def test_accepted_scores_non_decreasing(self):
        sentences, labels = xor_selection_dataset(seed=3)
        evaluate = accuracy_evaluator(sentences, labels)
        report = select_features(
            [("w", 0), ("w", 1), ("w", 2)], evaluate, beam=2
        )
        running = []
        best = -1.0
        for _, s in report.score_history:
            if s > best:
                best = s
                running.append(s)
        assert running == sorted(running)
