from mbparse.schemes import Scheme, clause_spans, decode
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)
from references import corpus_sections


def assert_flat(spans, length):
    ordered = sorted(spans)
    for s in ordered:
        assert 0 <= s.start <= s.end < length
    for a, b in zip(ordered, ordered[1:]):
        assert a.end < b.start


def assert_nested(spans, length):
    for s in spans:
        assert 0 <= s.start <= s.end < length
    for a in spans:
        for b in spans:
            if a == b:
                continue
            disjoint = a.end < b.start or b.end < a.start
            nested = (a.start <= b.start and b.end <= a.end) or (
                b.start <= a.start and a.end <= b.end
            )
            assert disjoint or nested


def test_deterministic_given_seed():
    assert np_chunk_corpus(20, seed=5) == np_chunk_corpus(20, seed=5)
    assert parse_corpus(10, seed=5) == parse_corpus(10, seed=5)
    a, _ = np_chunk_corpus(20, seed=5)
    b, _ = np_chunk_corpus(20, seed=6)
    assert a != b


def test_np_corpus_flat_and_np_only():
    sentences, gold = np_chunk_corpus(50, seed=1)
    assert len(sentences) == 50
    for s, g in zip(sentences, gold):
        assert_flat(g, len(s))
        assert all(span.type == "NP" for span in g)


def test_np_corpus_has_adjacent_chunks():
    _, gold = np_chunk_corpus(100, seed=2)
    adjacent = sum(
        1
        for spans in gold
        for a, b in zip(sorted(spans), sorted(spans)[1:])
        if a.end + 1 == b.start
    )
    assert adjacent > 10


def test_typed_corpus_types():
    sentences, gold = typed_chunk_corpus(40, seed=3)
    types = {s.type for g in gold for s in g}
    assert {"NP", "VP"} <= types
    for s, g in zip(sentences, gold):
        assert_flat(g, len(s))


def test_nested_corpus_proper_nesting():
    sentences, gold = nested_np_corpus(40, seed=4)
    deepest = 0
    for s, g in zip(sentences, gold):
        assert_nested(g, len(s))
        for a in g:
            depth = sum(
                1 for b in g if b != a and b.start <= a.start and a.end <= b.end
            )
            deepest = max(deepest, depth)
    assert deepest >= 1  # something is actually embedded


def test_parse_corpus_roots_cover_sentences():
    sentences, gold = parse_corpus(30, seed=5)
    for s, g in zip(sentences, gold):
        assert_nested(g, len(s))
        assert any(
            sp.start == 0 and sp.end == len(s) - 1 and sp.type == "S" for sp in g
        )


def test_clause_corpus_alignment():
    sentences, chunks, forests = clause_corpus(30, seed=6)
    for sent, spans, forest in zip(sentences, chunks, forests):
        tags = [t.chunk_tag for t in sent]
        assert decode(tags, Scheme.IOB1) == sorted(spans)
        for start, end in clause_spans(forest):
            assert 0 <= start <= end < len(sent)


def test_sections_differ():
    sections = corpus_sections(4, 6, seed=7)
    texts = {
        tuple(t.word for s, _ in [sec] for sent in s for t in sent)
        for sec in sections
    }
    assert len(texts) == 4
