"""The cascade's array paths against the per-sentence references: bracket
columns decoded into span arrays, tree levels, views compressed level by
level, and the chunk features of the type model."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbparse
from mbparse import features, pipeline
from mbparse.corpus import decode_brackets, encode_bracket_column, write_corpus
from mbparse.errors import CorpusError, DomainError
from mbparse.features import CodedCorpus, Token
from mbparse.pipeline import tree_levels
from mbparse.schemes import ChunkSpan, SpanArrays
from references import (
    compress_view,
    corpus_tokens,
    decode_bracket_column,
    decoded_rows,
    level_views,
    stratify_levels,
    type_features,
    view_sentences,
)

TYPES = ("NP", "S", "SBAR", "VP")  # "S" < "SBAR" < "VP": chains nest in this order
POS = ("NN", "NNS", "NNP", "DT", "JJ", "IN", "VBD")


def crosses(s: ChunkSpan, t: ChunkSpan) -> bool:
    return s.start < t.start <= s.end < t.end or t.start < s.start <= t.end < s.end


@st.composite
def trees(draw, max_length=8):
    """A sentence length and a tree's spans over it: no two cross, and
    some repeat an extent (a unary chain) or a whole span (a duplicate)."""
    n = draw(st.integers(0, max_length))
    spans: list[ChunkSpan] = []
    for _ in range(draw(st.integers(0, 2 * n))):
        if spans and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from([(s.start, s.end) for s in spans]))
        elif draw(st.integers(0, 5)) == 0:
            a, b = 0, n - 1
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(a, n - 1))
        span = ChunkSpan(a, b, draw(st.sampled_from(TYPES)))
        if not any(crosses(span, t) for t in spans):
            spans.append(span)
    return n, spans


@st.composite
def sentences(draw, n):
    return [Token(draw(st.sampled_from("abcd")), draw(st.sampled_from(POS))) for _ in range(n)]


@st.composite
def parsed_corpora(draw, max_sentences=4):
    """Sentences of tokens, each with a tree over it."""
    shapes = draw(st.lists(trees(), max_size=max_sentences))
    return [draw(sentences(n)) for n, _ in shapes], [spans for _, spans in shapes]


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (CorpusError, DomainError) as exc:
        return type(exc), str(exc)


def per_sentence_decode(cells, lengths, lines, path):
    out, a = [], 0
    for n in lengths:
        out.append(decode_bracket_column(cells[a : a + n], lines[a : a + n], path))
        a += n
    return out


class TestDecodeBrackets:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(trees(), max_size=5), st.data())
    def test_matches_per_sentence_decoder(self, shapes, data):
        """Same spans, or the same first error with the same file and line;
        some cells damaged: a character dropped, or text drawn in place."""
        cells = [c for n, spans in shapes for c in encode_bracket_column(spans, n)]
        lengths = [n for n, _ in shapes]
        damaged = data.draw(st.integers(0, 2)) if cells else 0
        for _ in range(damaged):
            i = data.draw(st.integers(0, len(cells) - 1))
            if data.draw(st.booleans()) and cells[i]:
                k = data.draw(st.integers(0, len(cells[i]) - 1))
                cells[i] = cells[i][:k] + cells[i][k + 1 :]
            else:
                cells[i] = data.draw(st.text("()*SNPx", max_size=7))
        lines = np.arange(len(cells)) * 2 + 3
        expected = outcome(per_sentence_decode, cells, lengths, lines, "f.txt")
        got = outcome(decode_brackets, cells, lengths, lines, "f.txt")
        assert (got if isinstance(got, tuple) else got.lists()) == expected
        if not damaged:
            assert expected == [sorted(spans) for _, spans in shapes]

    @pytest.mark.parametrize("cells, message", [
        (["(S*", "x", "*S)"], "line 2: bracket cell 'x' lacks '*'"),
        (["(S(NP*", "*NP)S)x"], "line 2: malformed bracket cell '*NP)S)x'"),
        (["(S*", "*NP)"], "line 2: unbalanced 'NP' close in column"),
        (["(S(NP*", "*", "*NP)"], "line 1: unclosed 'S' bracket in column"),
        (["(S*", "(NP*", "*"], "line 2: unclosed 'NP' bracket in column"),
    ])
    def test_first_error_names_its_line(self, cells, message):
        with pytest.raises(CorpusError) as caught:
            decode_brackets(cells, [len(cells)], [1, 2, 3][: len(cells)])
        assert str(caught.value) == message


class TestTreeLevels:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(trees(), max_size=5))
    def test_levels_match_stratify(self, shapes):
        lengths = [n for n, _ in shapes]
        tree, level = tree_levels(SpanArrays.of([s for _, s in shapes], lengths, nested=True))
        got = [{} for _ in shapes]
        for si, span, lv in zip(tree.sentence.tolist(), sum(tree.lists(), []), level.tolist()):
            got[si].setdefault(lv, []).append(span)
        assert got == [stratify_levels(spans) for _, spans in shapes]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(TYPES)),
        max_size=6))))
    def test_crossing_spans_raise(self, drawn):
        n, raw = drawn
        spans = [ChunkSpan(min(a, b), max(a, b), t) for a, b, t in raw]
        tree = SpanArrays.of([spans], [n], nested=True)
        if any(crosses(s, t) for s in spans for t in spans):
            with pytest.raises(DomainError, match="crosses a span before it"):
                tree_levels(tree)
        else:
            tree_levels(tree)


class TestViews:
    @settings(max_examples=200, deadline=None)
    @given(parsed_corpora())
    def test_views_match_level_views(self, corpus):
        """Every level's view, compressed from the one below by one batched
        call, equals the sentence-by-sentence views built from scratch; so
        does a coded corpus of its tokens, whole and for some sentences."""
        sents, gold = corpus
        coded = CodedCorpus(sents)
        tree, level = tree_levels(SpanArrays.of(gold, coded.lengths, nested=True))
        stratified = [stratify_levels(g) for g in gold]
        view = coded.view()
        for lv in range(int(level.max(initial=0)) + 2):
            if lv:
                view = features.compress_mapped(view, tree.where(level == lv - 1))
            expected = [level_views(s, by, lv) for s, by in zip(sents, stratified)]
            assert view_sentences(sents, view) == expected
            assert corpus_tokens(coded.compressed(view)) == [tokens for tokens, _ in expected]
            some = np.arange(0, len(sents), 2)
            some_tokens = [expected[i][0] for i in some]
            assert corpus_tokens(coded.compressed(view).take(some)) == some_tokens

    @settings(max_examples=200, deadline=None)
    @given(parsed_corpora(), st.data())
    def test_compress_matches_per_sentence(self, corpus, data):
        """A view compressed by the chunks of one tree level, and then by
        chunks drawn at will, which may share a view token: the same views,
        or the same first error."""
        sents, gold = corpus
        coded = CodedCorpus(sents)
        tree, level = tree_levels(SpanArrays.of(gold, coded.lengths, nested=True))
        drawn = [
            [ChunkSpan(min(a, b), max(a, b), t) for a, b, t in data.draw(st.lists(
                st.tuples(st.integers(0, len(s) - 1), st.integers(0, len(s) - 1),
                          st.sampled_from(TYPES)), max_size=3))] if s else []
            for s in sents
        ]
        lowest = tree.where(level == 0).lists()

        def per_sentence():
            out = []
            for s, low, more in zip(sents, lowest, drawn):
                out.append(compress_view(compress_view((s, range(len(s))), low), more))
            return out

        def batched():
            view = features.compress_mapped(coded.view(), tree.where(level == 0))
            more = SpanArrays.of(drawn, coded.lengths, nested=True)
            return view_sentences(sents, features.compress_mapped(view, more))

        assert outcome(batched) == outcome(per_sentence)


class TestTypeFeatures:
    @settings(max_examples=200, deadline=None)
    @given(parsed_corpora())
    def test_match_per_sentence_heads(self, corpus):
        """Chunks with and without nouns, adjacent, or the whole sentence:
        each one's features come from the heads ``np_head`` finds."""
        sents, gold = corpus
        coded = CodedCorpus(sents)
        tree, level = tree_levels(SpanArrays.of(gold, coded.lengths, nested=True))
        chunks = tree.where(level == 0)
        columns = pipeline._type_features(coded, chunks)
        expected = [row for s, c in zip(sents, chunks.lists()) for row in type_features(s, c)]
        assert decoded_rows(columns) == expected


def test_np_parse_bundle_ignores_the_hash_seed(tmp_path):
    """A unary chain S over VP over the same tokens trains the same np-parse
    bundle under any hash seed: their levels follow the bracket nesting."""
    words = [("prices", "NNS"), ("rose", "VBD"), ("the", "DT"), ("market", "NN")]
    tree = [ChunkSpan(0, 0, "NP"), ChunkSpan(1, 3, "VP"), ChunkSpan(1, 3, "S"),
            ChunkSpan(1, 3, "SBAR"), ChunkSpan(2, 3, "NP"), ChunkSpan(0, 3, "S")]
    more = [("gold", "NN"), ("fell", "VBD")]
    short = [ChunkSpan(0, 0, "NP"), ChunkSpan(1, 1, "VP"), ChunkSpan(1, 1, "S"),
             ChunkSpan(0, 1, "S")]
    rows = [[(w, p, c) for (w, p), c in zip(ws, encode_bracket_column(t, len(ws)))]
            for ws, t in ((words, tree), (more, short))]
    write_corpus(rows, tmp_path / "train.txt", ("word", "pos", "tree"))
    src = str(Path(mbparse.__file__).resolve().parent.parent)
    digests = set()
    for seed in ("1", "2"):
        model = tmp_path / f"model{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-m", "mbparse.cli", "train", "--task", "np-parse",
             "--train", str(tmp_path / "train.txt"), "--model", str(model), "--workers", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        h = hashlib.sha256()
        for p in sorted(model.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        digests.add(h.hexdigest())
    assert len(digests) == 1
