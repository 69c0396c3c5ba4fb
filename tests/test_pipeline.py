import dataclasses
import json
import tempfile
import types
import typing
from collections import Counter
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse import bundles, features, learner, pipeline
from mbparse.combine import majority_vote
from mbparse.corpus import encode_bracket_column
from mbparse.errors import ConfigError, DomainError
from mbparse.evaluate import score
from mbparse.features import CodedCorpus, Token, parse_template
from mbparse.folds import (
    LeakMode,
    assert_leak_free,
    build_fold_plan,
    run_two_phase_cv,
    training_gold_closure,
)
from mbparse.learner import LearnerConfig
from mbparse.pipeline import (
    BracketLevel,
    Chunker,
    DoublePhaseChunker,
    FullParser,
    NPhaseChunker,
    NpParser,
    PipelineConfig,
    Tagger,
    TypeStrategy,
    chunk_corpus_detail,
    chunk_np,
    chunk_typed,
    identify_clauses,
    parse_full,
    parse_np,
    train_chunker,
    train_clause_bracketer,
    train_full_parser,
    train_np_parser,
    train_tagger,
    train_typed_chunker,
    tree_levels,
)
from mbparse.schemes import (
    ChunkSpan,
    Scheme,
    SpanArrays,
    balance_brackets,
    convert,
    decode,
    encode,
    mark_type,
)
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)
from references import (
    OracleBracketLevel,
    OracleClauseBracketer,
    OracleStream,
    corpus_sections,
    corpus_tokens,
    model_objects,
    model_parts,
    parse_full_levels,
    stratify_levels,
    view_sentences,
)


def oracle_chunker(gold, typed=False, default_type="NP"):
    return Chunker(
        streams={Scheme.IOB1: OracleStream(Scheme.IOB1, gold, typed=typed)},
        representations=(Scheme.IOB1,),
        default_type=default_type,
    )


def leaves_of(spans):
    return [
        s
        for s in spans
        if not any(t != s and t.start >= s.start and t.end <= s.end for t in spans)
    ]


class TestChunkNp:
    def test_empty_corpus(self):
        assert chunk_np([], oracle_chunker([])) == []

    def test_oracle_reproduces_gold(self):
        sents, gold = np_chunk_corpus(12, seed=1)
        out = chunk_np(sents, oracle_chunker(gold))
        assert [sorted(o) for o in out] == [sorted(g) for g in gold]

    def test_missing_stream_model(self):
        sents, gold = np_chunk_corpus(3, seed=2)
        chunker = oracle_chunker(gold)
        with pytest.raises(ConfigError):
            chunk_np(sents, Chunker(streams={}, representations=chunker.representations))

    @pytest.mark.parametrize("rep", [Scheme.O, Scheme.C])
    def test_lone_open_or_close_representation(self, rep):
        """One refusal serves a configuration and a chunker built of parts."""
        gold = np_chunk_corpus(3, seed=2)[1]
        streams = {s: OracleStream(s, gold) for s in (Scheme.O, Scheme.C)}
        for build in (lambda: PipelineConfig(representations=(rep,)),
                      lambda: Chunker(streams, (rep,))):
            with pytest.raises(ConfigError, match="O or C alone does not determine spans"):
                build()

    def test_trained_chunker_reasonable_and_flat(self):
        tr_s, tr_g = np_chunk_corpus(80, seed=3)
        te_s, te_g = np_chunk_corpus(30, seed=77)
        chunker = train_chunker(tr_s, tr_g)
        out = chunk_np(te_s, chunker)
        for spans in out:
            ordered = sorted(spans)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end < b.start
        assert score(out, te_g).f > 80.0

    def test_even_representation_count_warns(self):
        with pytest.warns(UserWarning) as caught:
            PipelineConfig(representations=(Scheme.IOB1, Scheme.IOE2))
        assert caught[0].filename == __file__  # the caller's line, not __init__'s

    def test_detail_returns_all_branches(self):
        tr_s, tr_g = np_chunk_corpus(40, seed=5)
        chunker = train_chunker(tr_s, tr_g)
        combined, per_rep = chunk_corpus_detail(chunker, tr_s[:10])
        assert set(per_rep) == {Scheme.IOB1, Scheme.IOE2, Scheme.OC}
        assert len(combined) == 10

    def test_each_stream_tagged_once(self, monkeypatch):
        tr_s, tr_g = np_chunk_corpus(30, seed=6)
        chunker = train_chunker(tr_s, tr_g)
        calls = []
        original = pipeline.classify_labels

        def counting(model, queries):
            calls.append(len(queries))
            return original(model, queries)

        monkeypatch.setattr(pipeline, "classify_labels", counting)
        te_s, _ = np_chunk_corpus(5, seed=7)
        chunk_np(te_s, chunker)
        # IOB1, IOE2, O and C streams, two passes each
        assert len(calls) == 8
        assert set(calls) == {sum(len(s) for s in te_s)}

    def test_brackets_read_from_spans(self, monkeypatch):
        tr_s, tr_g = np_chunk_corpus(30, seed=6)
        chunker = train_chunker(tr_s, tr_g)
        calls = []

        def recorder(name):
            original = getattr(pipeline, name)

            def recording(*args, **kwargs):
                calls.append((name, [a for a in args if isinstance(a, Scheme)]))
                return original(*args, **kwargs)

            return recording

        for name in ("decode_tags", "tag_codes"):
            monkeypatch.setattr(pipeline, name, recorder(name))
        te_s, _ = np_chunk_corpus(5, seed=7)
        chunk_np(te_s, chunker)
        # one decoding per IOB or IOE representation; O+C needs none
        assert calls == [("decode_tags", [Scheme.IOB1]), ("decode_tags", [Scheme.IOE2])]


def tag_twice_detail(chunker, sentences):
    """Reference: the chunker as it was before tagging each stream once.  It
    tags every stream for the vote and again for per-representation spans."""
    reps, typ = chunker.representations, chunker.default_type

    def bracket_streams(rep):
        if rep is Scheme.OC:
            o = chunker.streams[Scheme.O].tag_corpus(sentences)
            c = chunker.streams[Scheme.C].tag_corpus(sentences)
            return o, c
        tags = chunker.streams[rep].tag_corpus(sentences)
        opens = [convert(t, rep, Scheme.O, typ) for t in tags]
        closes = [convert(t, rep, Scheme.C, typ) for t in tags]
        return opens, closes

    def balance(o, c):
        return balance_brackets([mark_type(t, typ) for t in o], [mark_type(t, typ) for t in c])

    def spans_of_rep(rep):
        if rep is Scheme.OC:
            opens, closes = bracket_streams(rep)
            return [balance(o, c) for o, c in zip(opens, closes)]
        tags = chunker.streams[rep].tag_corpus(sentences)
        return [decode(t, rep, typ) for t in tags]

    per_rep = {rep: bracket_streams(rep) for rep in reps}
    combined = []
    for si, sentence in enumerate(sentences):
        voted_o, voted_c = [], []
        for i in range(len(sentence)):
            voted_o.append(majority_vote([per_rep[r][0][si][i] for r in reps]))
            voted_c.append(majority_vote([per_rep[r][1][si][i] for r in reps]))
        combined.append(balance(voted_o, voted_c))
    individual = {rep: spans_of_rep(rep) for rep in reps}
    return combined, individual


class FixedStream:
    """Replays fixed tags, well-formed or not, and counts its calls."""

    def __init__(self, tags):
        self.tags = tags
        self.calls = 0

    def tag_corpus(self, sentences):
        self.calls += 1
        return [list(t) for t in self.tags]


_KINDS = {
    Scheme.IOB1: "IOB", Scheme.IOB2: "IOB", Scheme.IOE1: "IOE", Scheme.IOE2: "IOE",
    Scheme.O: "(.", Scheme.C: ").",
}
_ALL_REPS = (Scheme.IOB1, Scheme.IOB2, Scheme.IOE1, Scheme.IOE2, Scheme.OC)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_detail_matches_tag_twice_reference(data):
    reps = tuple(
        data.draw(st.lists(st.sampled_from(_ALL_REPS), min_size=1, max_size=5, unique=True))
    )
    typed = data.draw(st.booleans())
    lengths = data.draw(st.lists(st.integers(0, 7), max_size=5))
    suffixes = ("-NP", "-VP") if typed else ("",)

    def stream_tags(scheme):
        tag = st.tuples(st.sampled_from(_KINDS[scheme]), st.sampled_from(suffixes)).map(
            lambda kt: kt[0] if kt[0] in "O." else kt[0] + kt[1]
        )
        return [data.draw(st.lists(tag, min_size=n, max_size=n)) for n in lengths]

    schemes = [Scheme.O, Scheme.C] if Scheme.OC in reps else []
    tags = {s: stream_tags(s) for s in [r for r in reps if r is not Scheme.OC] + schemes}
    default_type = data.draw(st.sampled_from(("NP", "CH")))
    sentences = [[Token(f"w{i}", "NN") for i in range(n)] for n in lengths]

    def chunker():
        streams = {s: FixedStream(t) for s, t in tags.items()}
        return Chunker(streams, reps, default_type)

    fresh = chunker()
    assert chunk_corpus_detail(fresh, sentences) == tag_twice_detail(chunker(), sentences)
    assert all(stream.calls == 1 for stream in fresh.streams.values())
    assert chunk_np(sentences, chunker()) == tag_twice_detail(chunker(), sentences)[0]


class TestChunkTyped:
    def test_single_type_strategies_agree_with_chunk_np(self):
        tr_s, tr_g = np_chunk_corpus(50, seed=6)  # NP-only corpus
        cfg = PipelineConfig()
        plain = train_chunker(tr_s, tr_g, cfg)
        te_s, _ = np_chunk_corpus(20, seed=90)
        base = chunk_np(te_s, plain)
        for strategy in TypeStrategy:
            chunker = train_typed_chunker(tr_s, tr_g, strategy, cfg)
            out = chunk_typed(te_s, chunker)
            assert [sorted(o) for o in out] == [sorted(b) for b in base], strategy

    def test_oracle_single_phase_reproduces_gold(self):
        sents, gold = typed_chunk_corpus(15, seed=7)
        chunker = oracle_chunker(gold, typed=True)
        out = chunk_typed(sents, chunker)
        assert [sorted(o) for o in out] == [sorted(g) for g in gold]

    def test_trained_double_phase(self):
        tr_s, tr_g = typed_chunk_corpus(80, seed=8)
        te_s, te_g = typed_chunk_corpus(30, seed=81)
        chunker = train_typed_chunker(tr_s, tr_g, TypeStrategy.DOUBLE_PHASE)
        out = chunk_typed(te_s, chunker)
        assert score(out, te_g).f > 75.0

    def test_trained_n_phase(self):
        tr_s, tr_g = typed_chunk_corpus(60, seed=9)
        te_s, te_g = typed_chunk_corpus(20, seed=82)
        chunker = train_typed_chunker(tr_s, tr_g, TypeStrategy.N_PHASE)
        assert chunker.chunkers[0].default_type == "NP"  # most frequent type first
        out = chunk_typed(te_s, chunker)
        assert score(out, te_g).f > 60.0

    def test_n_phase_conflict_goes_to_frequent_type(self):
        sents = [[Token("a", "A"), Token("b", "B"), Token("c", "C")]]
        np_gold = [[ChunkSpan(0, 1, "NP")]]
        vp_gold = [[ChunkSpan(1, 2, "VP")]]
        chunker = NPhaseChunker([  # NP first: more frequent in training
            oracle_chunker(np_gold, default_type="NP"),
            oracle_chunker(vp_gold, default_type="VP"),
        ])
        out = chunk_typed(sents, chunker)
        assert out == [[ChunkSpan(0, 1, "NP")]]


COACH = [
    Token("Coach", "VB", "B-VP"),
    Token("them", "PRP", "B-NP"),
    Token("in", "IN", "B-PP"),
    Token("handling", "VBG", "B-VP"),
    Token("complaints", "NNS", "B-NP"),
    Token("so", "IN", "B-SBAR"),
    Token("that", "IN", "I-SBAR"),
    Token("they", "PRP", "B-NP"),
    Token("can", "MD", "B-VP"),
    Token("resolve", "VB", "I-VP"),
    Token("problems", "NNS", "B-NP"),
    Token("immediately", "RB", "B-ADVP"),
    Token(".", ".", "O"),
]
COACH_CLAUSES = [(0, 12), (3, 4), (5, 11), (7, 11)]


class TestClauses:
    def test_oracle_reconstructs_nested_clauses(self):
        clauses = [ChunkSpan(s, e, "S") for s, e in COACH_CLAUSES]
        bracketer = OracleClauseBracketer([clauses])
        out = identify_clauses([COACH], bracketer)
        assert out[0] == sorted(clauses)

    def test_silent_predictors_give_empty_forests(self):
        class Silent:
            def predict_opens(self, sentences):
                return [[] for _ in corpus_tokens(sentences)]

            def predict_closes(self, sentences):
                return [[] for _ in corpus_tokens(sentences)]

        out = identify_clauses([COACH], Silent())
        assert out == [[]]

    def test_open_at_zero_only(self):
        class OpenOnly:
            def predict_opens(self, sentences):
                return [[0] for _ in corpus_tokens(sentences)]

            def predict_closes(self, sentences):
                return [[] for _ in corpus_tokens(sentences)]

        out = identify_clauses([COACH], OpenOnly())
        assert out[0] == [ChunkSpan(0, len(COACH) - 2, "S")]

    def test_chunk_annotations_required(self):
        sents, _, forests = clause_corpus(5, seed=10)
        bracketer = train_clause_bracketer(sents, forests)
        bare = [[Token(t.word, t.pos) for t in s] for s in sents]
        with pytest.raises(DomainError):
            identify_clauses(bare, bracketer)

    def test_close_lands_on_the_last_token_of_its_chunk(self):
        """The close tagger sees "the man" as one compressed token; its
        close maps back to the chunk's last original position."""
        sent = [Token("he", "PRP", "B-NP"), Token("saw", "VBD", "B-VP"),
                Token("the", "DT", "B-NP"), Token("man", "NN", "I-NP")]
        bracketer = train_clause_bracketer([sent], [[ChunkSpan(0, 3, "S")]], LearnerConfig(k=1))
        assert bracketer.predict_closes([sent]) == [[3]]

    def test_trained_bracketer_finds_clauses(self):
        tr = clause_corpus(100, seed=11)
        te = clause_corpus(40, seed=12)
        bracketer = train_clause_bracketer(tr[0], tr[2])
        found = identify_clauses(te[0], bracketer)
        assert score(found, te[2]).f > 45.0


MONEY = [
    Token("at", "IN"),
    Token("$", "$"),
    Token("366.50", "CD"),
    Token("an", "DT"),
    Token("ounce", "NN"),
    Token(".", "."),
]
MONEY_GOLD = [ChunkSpan(1, 2, "NP"), ChunkSpan(3, 4, "NP"), ChunkSpan(1, 4, "NP")]


class TestParseNp:
    def test_embedded_money_phrase(self):
        base = oracle_chunker([leaves_of(MONEY_GOLD)])
        parser = NpParser(base=base, levels=[OracleBracketLevel([MONEY_GOLD])] * 2)
        out = parse_np([MONEY], parser)
        assert out == [sorted(MONEY_GOLD)]

    def test_no_phrases_stops_at_level_one(self):
        sents = [[Token("run", "VB"), Token(".", ".")]]
        base = oracle_chunker([[]])
        parser = NpParser(base=base, levels=[OracleBracketLevel([[]])] * 6)
        assert parse_np(sents, parser) == [[]]

    def test_oracle_full_recovery(self):
        sents, gold = nested_np_corpus(25, seed=13)
        base = oracle_chunker([leaves_of(g) for g in gold])
        parser = NpParser(base=base, levels=[OracleBracketLevel(gold)] * 6)
        out = parse_np(sents, parser)
        assert [sorted(set(o)) for o in out] == [sorted(set(g)) for g in gold]

    def test_trained_parser_nesting_validity(self):
        tr_s, tr_g = nested_np_corpus(120, seed=14)
        te_s, te_g = nested_np_corpus(50, seed=15)
        parser = train_np_parser(tr_s, tr_g)
        out = parse_np(te_s, parser)
        for spans in out:
            for a in spans:
                for b in spans:
                    if a == b:
                        continue
                    disjoint = a.end < b.start or b.end < a.start
                    nested = (
                        (a.start <= b.start and b.end <= a.end)
                        or (b.start <= a.start and a.end <= b.end)
                    )
                    assert disjoint or nested
        assert score(out, te_g).f > 80.0


class TestParseFull:
    def test_flat_corpus_is_base_plus_wrap(self):
        sents, gold = typed_chunk_corpus(10, seed=17)
        base = oracle_chunker(gold, typed=True)
        parser = FullParser(base=base, levels=[])
        out = parse_full(sents, parser)
        expected = [
            sorted(set(g) | {ChunkSpan(0, len(s) - 1, "S")})
            for s, g in zip(sents, gold)
        ]
        assert out == expected

    def test_every_tree_has_clause_root(self):
        tr = parse_corpus(60, seed=18)
        te = parse_corpus(25, seed=19)
        parser = train_full_parser(tr[0], tr[1])
        out = parse_full(te[0], parser)
        for sent, spans in zip(te[0], out):
            assert any(
                s.start == 0 and s.end == len(sent) - 1 and s.type == "S"
                for s in spans
            )

    def test_recall_monotone_over_levels(self):
        tr = parse_corpus(100, seed=20)
        te = parse_corpus(40, seed=21)
        parser = train_full_parser(tr[0], tr[1])
        snapshots = parse_full_levels(te[0], parser)
        recalls = [score(snap, te[1]).recall for snap in snapshots]
        assert all(a <= b + 1e-9 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] > recalls[0]  # the cascade adds something

    def test_oracle_full_recovery(self):
        sents, gold = parse_corpus(20, seed=22)
        base = oracle_chunker([leaves_of(g) for g in gold], typed=True)
        parser = FullParser(base=base, levels=[OracleBracketLevel(gold)] * 8)
        out = parse_full(sents, parser)
        assert [sorted(set(o)) for o in out] == [sorted(set(g)) for g in gold]


def predict_per_model(level, corpus, view, sentences):
    """Reference: ``BracketLevel.predict`` on a batch of token lists,
    extracting every token's features once for each of its two taggers."""
    views = view_sentences(corpus, view)
    tokens = [views[si][0] for si in sentences.tolist()]
    otags, ctags = level.open.tag(tokens), level.close.tag(tokens)
    return [
        (
            [mark_type(t, level.default_type) for t in o],
            [mark_type(t, level.default_type) for t in c],
        )
        for o, c in zip(otags, ctags)
    ]


def gold_views(sentences, gold, top):
    """A coded corpus of ``sentences``, their tree spans and levels, and
    the views compressed by the gold structure below each level up to
    ``top``, from level 0 on."""
    corpus = CodedCorpus(sentences)
    tree, level = tree_levels(SpanArrays.of(gold, corpus.lengths, nested=True))
    views = [corpus.view()]
    for below in range(top):
        views.append(features.compress_mapped(views[-1], tree.where(level == below)))
    return corpus, tree, level, views


@pytest.fixture(scope="module")
def trained_levels():
    """Levels 1-3 trained on ``parse_corpus``, plus each level's test batch:
    test sentences compressed by the gold structure below that level, all
    but the fourth, with an empty sentence second."""
    tr_s, tr_g = parse_corpus(60, seed=35)
    te_s, te_g = parse_corpus(20, seed=36)
    te_s, te_g = [te_s[0], [], *te_s[1:]], [te_g[0], [], *te_g[1:]]
    corpus, tree, level, views = gold_views(tr_s, tr_g, 3)
    te_corpus, _, _, te_views = gold_views(te_s, te_g, 3)
    batch = np.delete(np.arange(len(te_s)), 3)
    out = []
    for lv in (1, 2, 3):
        lm = pipeline.train_bracket_level(
            corpus, views[lv], tree.where(level == lv), parse_template("w[-2..2] p[-2..2]"),
            LearnerConfig(k=1), typed=True,
        )
        out.append((lm, (te_corpus, te_views[lv], batch)))
    return out


def model_columns(model, template):
    """Each feature column of a template model, keyed by its (channel, offset)."""
    atoms = [("w", o) for o in template.words] + [("p", o) for o in template.pos]
    atoms += [("c", o) for o in template.chunks]
    return dict(zip(atoms, model.instances.columns))


class TestOneCodedCorpus:
    def channel_codings(self, monkeypatch):
        """Record the cells of every channel that ``features`` codes."""
        coded = []
        code_channel = features._code_channel

        def recording(cells):
            coded.append(cells)
            return code_channel(cells)

        monkeypatch.setattr(features, "_code_channel", recording)
        return coded

    @staticmethod
    def assert_words_and_pos_coded_once(coded, sentences):
        words, pos = ([getattr(t, f) for s in sentences for t in s] for f in ("word", "pos"))
        assert coded.count(words) == 1 and coded.count(pos) == 1

    def test_train_chunker_codes_each_channel_and_labels_once(self, monkeypatch):
        sentences, gold = np_chunk_corpus(30, seed=21)
        coded = self.channel_codings(monkeypatch)
        chunker = train_chunker(sentences, gold)
        streams = chunker.streams.values()
        with_context = sum(1 for st in streams if st.pass2 is not None)
        assert with_context == 4
        self.assert_words_and_pos_coded_once(coded, sentences)
        assert len(coded) == 2 + with_context  # each pass-2 context, once
        shared = {}
        for st in streams:
            # each scheme's tags are coded once, for both passes
            assert st.pass2.model.instances.label_codes is st.pass1.model.instances.label_codes
            assert not st.pass1.model.instances.label_codes.flags.writeable
            for tagger in (st.pass1, st.pass2):
                for atom, column in model_columns(tagger.model, tagger.template).items():
                    assert not column.flags.writeable
                    if atom[0] != "c":
                        assert shared.setdefault(atom, column) is column
        assert len(shared) == 18  # w[-4..4] and p[-4..4]

        test = np_chunk_corpus(10, seed=22)[0]
        coded.clear()
        chunk_np(test, chunker)
        self.assert_words_and_pos_coded_once(coded, test)
        assert len(coded) == 2 + with_context

    @pytest.mark.parametrize("strategy", list(TypeStrategy))
    def test_typed_chunking_codes_words_and_pos_once(self, strategy, monkeypatch):
        sentences, gold = typed_chunk_corpus(30, seed=23)
        test = typed_chunk_corpus(8, seed=24)[0]
        coded = self.channel_codings(monkeypatch)
        chunker = train_typed_chunker(sentences, gold, strategy)
        self.assert_words_and_pos_coded_once(coded, sentences)
        coded.clear()
        chunk_typed(test, chunker)
        self.assert_words_and_pos_coded_once(coded, test)

    def test_clause_open_templates_share_columns_and_labels(self, monkeypatch):
        sentences, _, forests = clause_corpus(30, seed=25)
        coded = self.channel_codings(monkeypatch)
        bracketer = train_clause_bracketer(sentences, forests)
        assert len(coded) == 3  # w, p, c once; the close view's w and p come coded
        shared = {}
        labels = bracketer.opens[0].model.instances.label_codes
        for tagger in bracketer.opens:
            assert tagger.model.instances.label_codes is labels
            for atom, column in model_columns(tagger.model, tagger.template).items():
                assert shared.setdefault(atom, column) is column
        coded.clear()
        bracketer.predict_opens(sentences)
        assert len(coded) == 3


def model_of(template: str):
    """A model of ``template``'s features, trained on a few sentences."""
    sents, gold = np_chunk_corpus(5, seed=61)
    tags = [encode(g, Scheme.IOB1, len(s)) for s, g in zip(sents, gold)]
    return train_tagger(parse_template(template), sents, tags, LearnerConfig(k=1)).model


class TestParts:
    """A template and a model that differ in arity are refused when they are
    put together, not when a query reaches the model."""

    def test_tagger(self):
        model = model_of("w[-1..1]")
        assert Tagger(parse_template("p[-2,0,2]"), model).model is model
        with pytest.raises(DomainError, match="^template arity 2 does not match model arity 3$"):
            Tagger(parse_template("w[0..1]"), model)

    def test_bracket_level_fits_both_models(self):
        fits, wide = model_of("w[-1..1]"), model_of("w[-2..2]")
        for open_model, close_model in ((fits, wide), (wide, fits)):
            with pytest.raises(DomainError, match="template arity 3 does not match model arity 5"):
                BracketLevel(*(Tagger(parse_template("w[-1..1]"), model)
                               for model in (open_model, close_model)))

    def test_double_phase_type_model_reads_four_columns(self):
        with pytest.raises(DomainError, match="type model arity 3 does not match the 4 type"):
            DoublePhaseChunker(oracle_chunker([]), model_of("w[-1..1]"))


class TestBracketLevel:
    def test_predict_matches_per_model_reference(self, trained_levels):
        for lm, batch in trained_levels:
            assert lm.predict(*batch) == predict_per_model(lm, *batch)

    def test_feature_columns_built_once_per_predict(self, trained_levels, monkeypatch):
        """No channel is coded from cells in ``predict`` (a view's words and
        POS tags come coded), each feature column is recoded once, and the
        open and the close model query the same column arrays."""
        coded, recoded, read = [], [], []
        code_channel, recode = features._code_channel, features._recode
        classify_labels = pipeline.classify_labels

        def recording_code(cells):
            coded.append(cells)
            return code_channel(cells)

        def recording_recode(*args):
            recoded.append(args)
            return recode(*args)

        def recording_classify(model, queries):
            read.append(queries)
            return classify_labels(model, queries)

        monkeypatch.setattr(features, "_code_channel", recording_code)
        monkeypatch.setattr(features, "_recode", recording_recode)
        monkeypatch.setattr(pipeline, "classify_labels", recording_classify)
        for lm, batch in trained_levels:
            coded.clear()
            recoded.clear()
            read.clear()
            lm.predict(*batch)
            assert not coded
            assert len(recoded) == lm.open.template.arity
            opens, closes = read
            assert len(opens.columns) == len(closes.columns) == lm.open.template.arity
            assert all(a is b for a, b in zip(opens.columns, closes.columns))


def tree_by_level(spans, length):
    """``tree_levels`` of one sentence's spans, grouped by level."""
    tree, level = tree_levels(SpanArrays.of([spans], [length], nested=True))
    out = {}
    for span, lv in zip(tree.lists()[0], level.tolist()):
        out.setdefault(lv, []).append(span)
    return out


class TestStratify:
    def test_leaves_are_level_zero(self):
        by = tree_by_level(MONEY_GOLD, 5)
        assert sorted(by[0]) == sorted(leaves_of(MONEY_GOLD))
        assert by[1] == [ChunkSpan(1, 4, "NP")]

    def test_height_not_depth(self):
        spans = [
            ChunkSpan(0, 9, "S"),
            ChunkSpan(0, 1, "NP"),
            ChunkSpan(3, 8, "PP"),
            ChunkSpan(4, 8, "NP"),
            ChunkSpan(4, 5, "NP"),
        ]
        by = tree_by_level(spans, 10)
        assert ChunkSpan(4, 5, "NP") in by[0]
        assert ChunkSpan(0, 1, "NP") in by[0]
        assert ChunkSpan(4, 8, "NP") in by[1]
        assert ChunkSpan(3, 8, "PP") in by[2]
        assert ChunkSpan(0, 9, "S") in by[3]

    def test_unary_chain_nests_as_its_column(self):
        """Spans over the same tokens take their levels from the bracket
        column's nesting, the later type inside, whatever the hash seed."""
        chain = [ChunkSpan(0, 3, "VP"), ChunkSpan(0, 3, "S"), ChunkSpan(0, 3, "SBAR"),
                 ChunkSpan(1, 2, "NP")]
        assert encode_bracket_column(chain, 4)[0] == "(S(SBAR(VP*"
        expected = {0: [ChunkSpan(1, 2, "NP")], 1: [ChunkSpan(0, 3, "VP")],
                    2: [ChunkSpan(0, 3, "SBAR")], 3: [ChunkSpan(0, 3, "S")]}
        assert tree_by_level(chain, 4) == expected
        assert stratify_levels(chain) == expected

    def test_duplicates_count_once(self):
        spans = [ChunkSpan(0, 0, "NP"), ChunkSpan(0, 0, "NP"), ChunkSpan(0, 1, "NP")]
        assert tree_by_level(spans, 2) == {0: [ChunkSpan(0, 0, "NP")], 1: [ChunkSpan(0, 1, "NP")]}

    def test_crossing_spans_rejected(self):
        with pytest.raises(DomainError, match="crosses"):
            tree_by_level([ChunkSpan(0, 2, "NP"), ChunkSpan(1, 3, "VP")], 4)


class TestFoldPlans:
    def test_nested_inner_sections(self):
        plan = build_fold_plan(10, LeakMode.NESTED_CV)
        fold = plan.folds[0]
        assert fold.test_section == 0
        assert fold.phase1_train == tuple(range(1, 10))
        assert fold.inner[1] == tuple(s for s in range(1, 10) if s != 1)
        assert_leak_free(plan)

    def test_gold_in_train_single_outer(self):
        plan = build_fold_plan(10, LeakMode.GOLD_IN_TRAIN)
        assert all(fold.inner is None for fold in plan.folds)
        assert_leak_free(plan)

    def test_smallest_legal_nested(self):
        plan = build_fold_plan(3, LeakMode.NESTED_CV)
        assert plan.folds[0].inner[1] == (2,)
        assert plan.folds[0].inner[2] == (1,)

    def test_too_few_sections(self):
        with pytest.raises(DomainError):
            build_fold_plan(2, LeakMode.NESTED_CV)

    def test_two_sections_gold_in_train(self):
        plan = build_fold_plan(2, LeakMode.GOLD_IN_TRAIN)
        assert [fold.phase1_train for fold in plan.folds] == [(1,), (0,)]
        assert_leak_free(plan)
        with pytest.raises(DomainError):
            build_fold_plan(1, LeakMode.GOLD_IN_TRAIN)

    def test_closure_excludes_test_section(self):
        for mode in LeakMode:
            plan = build_fold_plan(5, mode)
            for fold in plan.folds:
                closure = training_gold_closure(plan, fold)
                assert fold.test_section not in closure
                assert closure == frozenset(range(5)) - {fold.test_section}

    def test_executable_cv_both_modes(self):
        secs = corpus_sections(4, 5, seed=23)
        sections = [s for s, _ in secs]
        gold = [g for _, g in secs]
        for mode in LeakMode:
            plan = build_fold_plan(4, mode)
            results = run_two_phase_cv(
                sections,
                gold,
                Scheme.IOB1,
                parse_template("w[-1..1] p[-1..1]"),
                parse_template("w[0] p[-1..1] c[-1,1]"),
                LearnerConfig(k=3),
                plan,
            )
            for x, result in results.items():
                assert x not in result.provenance
                assert len(result.tags) == len(sections[x])


class TestBundles:
    def test_chunker_round_trip(self, tmp_path):
        from mbparse.bundles import load_chunker, save_chunker

        tr_s, tr_g = np_chunk_corpus(40, seed=24)
        chunker = train_chunker(tr_s, tr_g)
        save_chunker(chunker, tmp_path / "b")
        loaded = load_chunker(tmp_path / "b")
        te_s, _ = np_chunk_corpus(10, seed=25)
        assert chunk_np(te_s, loaded) == chunk_np(te_s, chunker)

    def test_typed_round_trip(self, tmp_path):
        from mbparse.bundles import load_typed_chunker, save_typed_chunker

        tr_s, tr_g = typed_chunk_corpus(40, seed=26)
        for strategy in TypeStrategy:
            chunker = train_typed_chunker(tr_s, tr_g, strategy)
            path = tmp_path / strategy.value
            save_typed_chunker(chunker, path)
            loaded = load_typed_chunker(path)
            te_s, _ = typed_chunk_corpus(8, seed=27)
            assert chunk_typed(te_s, loaded) == chunk_typed(te_s, chunker)

    def test_n_phase_order_survives_and_decides_overlaps(self, tmp_path):
        """The order of ``chunkers`` is the only type order: a save and a
        load keep it, and of overlapping spans the type first in it wins."""
        tr_s, tr_g = typed_chunk_corpus(40, seed=26)
        trained = train_typed_chunker(tr_s, tr_g, TypeStrategy.N_PHASE)
        types = [chunker.default_type for chunker in trained.chunkers]
        counts = Counter(span.type for spans in tr_g for span in spans)
        assert types == sorted(counts, key=lambda t: (-counts[t], t))
        bundles.save_typed_chunker(trained, tmp_path / "trained")
        loaded = bundles.load_typed_chunker(tmp_path / "trained")
        assert [chunker.default_type for chunker in loaded.chunkers] == types

        te_s, _ = typed_chunk_corpus(8, seed=27)
        np_chunker = loaded.chunkers[types.index("NP")]
        found = chunk_np(te_s, np_chunker)
        assert any(found)
        for order in (("A", "B"), ("B", "A")):  # one chunker's spans under two types
            twin = NPhaseChunker([dataclasses.replace(np_chunker, default_type=t)
                                  for t in order])
            bundles.save_typed_chunker(twin, tmp_path / "".join(order))
            twin = bundles.load_typed_chunker(tmp_path / "".join(order))
            assert [chunker.default_type for chunker in twin.chunkers] == list(order)
            assert chunk_typed(te_s, twin) == [
                [dataclasses.replace(span, type=order[0]) for span in spans]
                for spans in found
            ]

    def test_clause_round_trip(self, tmp_path):
        from mbparse.bundles import load_clause_bracketer, save_clause_bracketer

        tr = clause_corpus(30, seed=28)
        bracketer = train_clause_bracketer(tr[0], tr[2])
        save_clause_bracketer(bracketer, tmp_path / "cl")
        loaded = load_clause_bracketer(tmp_path / "cl")
        te = clause_corpus(8, seed=29)
        a = identify_clauses(te[0], loaded)
        b = identify_clauses(te[0], bracketer)
        assert a == b

    def test_parser_round_trips(self, tmp_path):
        from mbparse.bundles import (
            load_full_parser,
            load_np_parser,
            save_full_parser,
            save_np_parser,
        )

        ntr = nested_np_corpus(50, seed=30)
        nparser = train_np_parser(ntr[0], ntr[1])
        save_np_parser(nparser, tmp_path / "np")
        nte = nested_np_corpus(8, seed=31)
        assert parse_np(nte[0], load_np_parser(tmp_path / "np")) == parse_np(
            nte[0], nparser
        )

        ftr = parse_corpus(50, seed=32)
        fparser = train_full_parser(ftr[0], ftr[1])
        save_full_parser(fparser, tmp_path / "full")
        fte = parse_corpus(8, seed=33)
        assert parse_full(fte[0], load_full_parser(tmp_path / "full")) == parse_full(
            fte[0], fparser
        )

    def test_wrong_kind_rejected(self, tmp_path):
        from mbparse.bundles import load_np_parser, save_chunker

        tr_s, tr_g = np_chunk_corpus(20, seed=34)
        save_chunker(train_chunker(tr_s, tr_g), tmp_path / "b")
        with pytest.raises(DomainError):
            load_np_parser(tmp_path / "b")


def _chunk_cells(spans, sentence, typed):
    return encode(spans, Scheme.IOB1, len(sentence), typed=typed)


# kind: (corpus generator, trainer, tagger, saver, loader, one sentence's output cells)
_BUNDLE_KINDS = {
    "chunker": (np_chunk_corpus, train_chunker, chunk_np,
                bundles.save_chunker, bundles.load_chunker,
                lambda out, s: _chunk_cells(out, s, typed=False)),
    **{
        f"typed-{strategy.value}": (
            typed_chunk_corpus,
            lambda s, g, strategy=strategy: train_typed_chunker(s, g, strategy),
            chunk_typed, bundles.save_typed_chunker, bundles.load_typed_chunker,
            lambda out, s: _chunk_cells(out, s, typed=True),
        )
        for strategy in TypeStrategy
    },
    "clauses": (lambda n, seed: clause_corpus(n, seed)[::2], train_clause_bracketer,
                identify_clauses, bundles.save_clause_bracketer,
                bundles.load_clause_bracketer,
                lambda out, s: encode_bracket_column(out, len(s))),
    "np-parser": (nested_np_corpus, train_np_parser, parse_np, bundles.save_np_parser,
                  bundles.load_np_parser,
                  lambda out, s: encode_bracket_column(out, len(s))),
    "full-parser": (parse_corpus, train_full_parser, parse_full, bundles.save_full_parser,
                    bundles.load_full_parser,
                    lambda out, s: encode_bracket_column(out, len(s))),
}


@pytest.mark.parametrize("kind", list(_BUNDLE_KINDS))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_saved_bundle_tags_like_the_trained_one(kind, seed):
    """save -> load -> tag writes the same bytes as tagging with the model
    still in memory, for every bundle kind."""
    generate, fit, tag, save, load, cells = _BUNDLE_KINDS[kind]
    model = fit(*generate(20, seed))
    test_sentences = generate(8, seed + 1)[0]

    def render(m):
        lines = []
        for sentence, out in zip(test_sentences, tag(test_sentences, m)):
            lines.extend(cells(out, sentence))
            lines.append("")
        return "\n".join(lines).encode("utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        save(model, Path(tmp) / "bundle")
        loaded = load(Path(tmp) / "bundle")
    assert render(loaded) == render(model)


@pytest.mark.parametrize("kind", list(_BUNDLE_KINDS))
def test_bundle_load_shares_columns_like_solo_loads(kind, tmp_path, monkeypatch):
    """Every model a ``load_*`` call reaches, each of its columns read once
    per load, equals ``load_model`` of its object alone, with an array file
    reader of its own, and tags the same."""
    generate, fit, tag, save, load, cells = _BUNDLE_KINDS[kind]
    save(fit(*generate(20, 5)), tmp_path)
    manifest = json.loads((tmp_path / "manifest").read_text(encoding="utf-8"))
    symbols = manifest["symbols"]

    def alone(data, place):
        with open(tmp_path / "arrays.npy", "rb") as fh:
            return learner.load_model(data, place, learner.BundleReader(tmp_path, symbols, fh))

    loads = []

    def recording(data, place, arrays):
        model = learner.load_model(data, place, arrays)
        loads.append((place, data, model))
        return model

    monkeypatch.setattr(bundles, "load_model", recording)
    shared = load(tmp_path)
    assert [place for place, _, _ in loads] == [place for place, _ in model_objects(manifest)]
    for place, data, model in loads:
        assert model_parts(model) == model_parts(alone(data, place))
    tables = [table for _, _, model in loads for table in model.instances.codes]
    assert len({id(table) for table in tables}) < len(tables)  # some column is shared

    monkeypatch.setattr(bundles, "load_model", lambda data, place, arrays: alone(data, place))
    solo = load(tmp_path)
    test_sentences = generate(8, 6)[0]
    rendered = [
        [cells(out, sentence) for sentence, out in zip(test_sentences, tag(test_sentences, m))]
        for m in (shared, solo)
    ]
    assert rendered[0] == rendered[1]


def _plain(value):
    """A composite as nested plain values: each dataclass its class and
    fields, a dict its items in order, a model its parts."""
    if isinstance(value, learner.Model):
        return model_parts(value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value), {f.name: _plain(getattr(value, f.name)) for f in fields}
    if isinstance(value, dict):
        return dict, [(k, _plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [_plain(v) for v in value]
    return type(value), value


@pytest.mark.parametrize("kind", list(_BUNDLE_KINDS))
def test_loaded_bundle_equals_the_trained_composite(kind, tmp_path):
    """A load gives back what training built, field by field."""
    generate, fit, tag, save, load, cells = _BUNDLE_KINDS[kind]
    trained = fit(*generate(20, 9))
    save(trained, tmp_path)
    assert _plain(load(tmp_path)) == _plain(trained)


def _manifest_objects(data, place=""):
    """The place, as a load names it, of every JSON object in a manifest's
    data but the symbol tables, the top one first."""
    if isinstance(data, dict):
        yield place[:-1] or "manifest"
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)) and (place or key != "symbols"):
            yield from _manifest_objects(value, f"{place}{key}.")


def _object_at(data, place):
    for key in place.split(".") if place != "manifest" else ():
        data = data[int(key) if isinstance(data, list) else key]
    return data


@pytest.mark.parametrize("kind", list(_BUNDLE_KINDS))
def test_every_manifest_object_refuses_a_key_it_does_not_read(kind, tmp_path):
    """A key put into any one object of a manifest makes the load one
    ``DomainError`` that names the object's place: a field that no class or
    model has, or, in a chunker's ``streams``, a scheme that it does not
    vote (named at the chunker)."""
    generate, fit, tag, save, load, cells = _BUNDLE_KINDS[kind]
    save(fit(*generate(20, 9)), tmp_path)
    text = (tmp_path / "manifest").read_text(encoding="utf-8")
    places = list(_manifest_objects(json.loads(text)))
    assert len(places) > 8
    for place in places:
        manifest = json.loads(text)
        target = _object_at(manifest, place)
        if "class" in target or "columns" in target:
            target["junk"] = 0
            what = f"{target.get('class', 'Model')} has no field 'junk'"
        else:  # a chunker's streams, keyed by scheme
            target["IOB2"] = next(iter(target.values()))
            place, what = place.rpartition(".")[0] or "manifest", "stream IOB2 is not voted"
        (tmp_path / "manifest").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DomainError) as err:
            load(tmp_path)
        assert str(err.value) == f"{tmp_path}: {place}: {what}"


def _assert_walker_reads(kind):
    """The bundle walker reads values of annotation ``kind``: a model, a
    template, text, an enum, a dict keyed by text or an enum, a list or
    tuple of one type, an optional value, a choice of dataclasses, or a
    dataclass whose fields' annotations it reads."""
    if kind in (learner.Model, features.FeatureTemplate, str):
        return
    if isinstance(kind, type) and issubclass(kind, Enum):
        return
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is dict:
        assert args[0] is str or issubclass(args[0], Enum), kind
        _assert_walker_reads(args[1])
    elif origin in (list, tuple):
        assert origin is list or args[1:] == (Ellipsis,), kind
        _assert_walker_reads(args[0])
    elif isinstance(kind, types.UnionType):
        options = [a for a in args if a is not type(None)]
        assert len(options) == 1 or all(map(dataclasses.is_dataclass, options)), kind
        for option in options:
            _assert_walker_reads(option)
    else:
        assert dataclasses.is_dataclass(kind), kind
        for f in dataclasses.fields(kind):
            _assert_walker_reads(f.type)


@pytest.mark.parametrize("root", [Chunker, pipeline.TypedChunker, pipeline.ClauseBracketer,
                                  NpParser, FullParser])
def test_walker_reads_every_field_of_a_composite(root):
    _assert_walker_reads(root)
