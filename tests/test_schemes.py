import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.errors import DomainError
from mbparse.learner import code_column
from mbparse.schemes import (
    ChunkSpan,
    Scheme,
    SpanArrays,
    balance_brackets,
    balance_clauses,
    convert,
    decode,
    decode_tags,
    encode,
    tag_codes,
)
from references import IO_SCHEMES, convert_sentence, decode_sentence, encode_sentence

# The 17-token example sentence "In early trading in Hong Kong Monday ,
# gold was quoted at $ 366.50 an ounce ." and its six noun chunks.
SENT_LEN = 17
SPANS = [
    ChunkSpan(1, 2), ChunkSpan(4, 5), ChunkSpan(6, 6),
    ChunkSpan(8, 8), ChunkSpan(12, 13), ChunkSpan(14, 15),
]
GOLDEN_ROWS = {
    Scheme.IOB1: "O I I O I I B O I O O O I I B I O",
    Scheme.IOB2: "O B I O B I B O B O O O B I B I O",
    Scheme.IOE1: "O I I O I E I O I O O O I E I I O",
    Scheme.IOE2: "O I E O I E E O E O O O I E I E O",
    Scheme.O:    ". ( . . ( . ( . ( . . . ( . ( . .",
    Scheme.C:    ". . ) . . ) ) . ) . . . . ) . ) .",
}


class TestGoldenRows:
    @pytest.mark.parametrize("scheme", list(GOLDEN_ROWS))
    def test_encode(self, scheme):
        got = encode(SPANS, scheme, SENT_LEN, typed=False)
        assert " ".join(got) == GOLDEN_ROWS[scheme]

    @pytest.mark.parametrize("scheme", IO_SCHEMES)
    def test_decode_recovers_spans(self, scheme):
        tags = GOLDEN_ROWS[scheme].split()
        assert decode(tags, scheme) == sorted(SPANS)

    def test_decode_bracket_pair(self):
        pairs = list(zip(GOLDEN_ROWS[Scheme.O].split(), GOLDEN_ROWS[Scheme.C].split()))
        assert decode(pairs, Scheme.OC) == sorted(SPANS)

    @pytest.mark.parametrize("dst", list(GOLDEN_ROWS))
    def test_convert_from_iob1(self, dst):
        tags = GOLDEN_ROWS[Scheme.IOB1].split()
        assert " ".join(convert(tags, Scheme.IOB1, dst)) == GOLDEN_ROWS[dst]

    def test_ioe1_to_ioe2(self):
        tags = GOLDEN_ROWS[Scheme.IOE1].split()
        assert " ".join(convert(tags, Scheme.IOE1, Scheme.IOE2)) == GOLDEN_ROWS[Scheme.IOE2]

    def test_identity_conversion(self):
        for scheme in IO_SCHEMES:
            tags = GOLDEN_ROWS[scheme].split()
            assert convert(tags, scheme, scheme) == tags


class TestEncode:
    def test_no_spans_all_outside(self):
        assert encode([], Scheme.IOB1, 3, typed=False) == ["O", "O", "O"]
        assert encode([], Scheme.O, 3, typed=False) == [".", ".", "."]
        assert encode([], Scheme.C, 3, typed=False) == [".", ".", "."]

    def test_typed_suffixes(self):
        spans = [ChunkSpan(0, 1, "VP")]
        assert encode(spans, Scheme.IOB2, 2) == ["B-VP", "I-VP"]
        assert encode(spans, Scheme.IOE2, 2) == ["I-VP", "E-VP"]
        assert encode(spans, Scheme.O, 2) == ["(-VP", "."]
        assert encode(spans, Scheme.C, 2) == [".", ")-VP"]

    def test_same_type_adjacency_only_triggers_markers(self):
        spans = [ChunkSpan(0, 0, "NP"), ChunkSpan(1, 1, "VP")]
        assert encode(spans, Scheme.IOB1, 2) == ["I-NP", "I-VP"]
        spans2 = [ChunkSpan(0, 0, "NP"), ChunkSpan(1, 1, "NP")]
        assert encode(spans2, Scheme.IOB1, 2) == ["I-NP", "B-NP"]

    def test_invalid_spans(self):
        with pytest.raises(DomainError):
            encode([ChunkSpan(0, 5)], Scheme.IOB1, 3)
        with pytest.raises(DomainError):
            encode([ChunkSpan(0, 1), ChunkSpan(1, 2)], Scheme.IOB1, 4)


class TestDecodePermissive:
    def test_iob2_bare_i_opens_chunk(self):
        assert decode(["I", "I", "O"], Scheme.IOB2) == [ChunkSpan(0, 1)]

    def test_ioe2_missing_e_closes_at_o(self):
        assert decode(["I", "I", "O"], Scheme.IOE2) == [ChunkSpan(0, 1)]

    def test_dangling_e(self):
        assert decode(["O", "E"], Scheme.IOE2) == [ChunkSpan(1, 1)]

    def test_type_change_splits(self):
        assert decode(["I-NP", "I-VP"], Scheme.IOB1) == [
            ChunkSpan(0, 0, "NP"),
            ChunkSpan(1, 1, "VP"),
        ]

    def test_total_over_malformed(self):
        rng = random.Random(0)
        tags = ["I", "O", "B", "E", "I-NP", "B-VP", "E-NP"]
        for scheme in IO_SCHEMES:
            for _ in range(200):
                seq = [rng.choice(tags) for _ in range(rng.randint(1, 8))]
                spans = decode(seq, scheme)
                ordered = sorted(spans)
                for a, b in zip(ordered, ordered[1:]):
                    assert a.end < b.start

    def test_lone_bracket_stream_rejected(self):
        with pytest.raises(DomainError):
            decode(["(", "."], Scheme.O)
        with pytest.raises(DomainError):
            convert([".", ")"], Scheme.C, Scheme.IOB1)


def random_span_set(rng, length, typed=False):
    spans = []
    i = 0
    types = ["NP", "VP", "PP"] if typed else ["NP"]
    while i < length:
        if rng.random() < 0.4:
            end = min(length - 1, i + rng.randint(0, 3))
            spans.append(ChunkSpan(i, end, rng.choice(types)))
            i = end + 1
        else:
            i += 1
    return spans


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", list(IO_SCHEMES) + [Scheme.OC])
    @pytest.mark.parametrize("typed", [False, True])
    def test_random_round_trips(self, scheme, typed):
        rng = random.Random(hash((scheme.value, typed)) & 0xFFFF)
        for _ in range(400):
            n = rng.randint(1, 12)
            spans = random_span_set(rng, n, typed)
            tags = encode(spans, scheme, n, typed=typed)
            assert decode(tags, scheme) == sorted(spans)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_double_conversion_is_identity(self, n, rng):
        spans = random_span_set(rng, n)
        for a in IO_SCHEMES:
            tags = encode(spans, a, n, typed=False)
            for b in IO_SCHEMES:
                assert convert(convert(tags, a, b), b, a) == tags


class TestBalanceBrackets:
    def test_paper_nesting_example(self):
        # ( a ( b c ) d )  ->  a ( b c ) d
        opens = ["NP", "NP", None, None]
        closes = [None, None, "NP", "NP"]
        assert balance_brackets(opens, closes) == [ChunkSpan(1, 2, "NP")]

    def test_no_marks(self):
        assert balance_brackets([None] * 4, [None] * 4) == []

    def test_stray_close_dropped(self):
        opens = ["A", None, "B", None]
        closes = [None, None, None, "B"]
        got = balance_brackets(opens, closes)
        assert got == [ChunkSpan(2, 3, "B")]
        # a second incompatible close at the same position is dropped
        closes2 = [None, None, None, "A"]
        assert balance_brackets(opens, closes2) == [ChunkSpan(0, 3, "A")]
        # a close matches no open of another type
        assert balance_brackets(["A", None], [None, "B"]) == []

    def test_single_token_chunk(self):
        assert balance_brackets(["NP"], ["NP"]) == [ChunkSpan(0, 0, "NP")]

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            balance_brackets([None], [None, None])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_output_flat_and_bounded(self, n, data):
        types = st.one_of(st.none(), st.sampled_from(["NP", "VP"]))
        opens = [data.draw(types) for _ in range(n)]
        closes = [data.draw(types) for _ in range(n)]
        spans = sorted(balance_brackets(opens, closes))
        for a, b in zip(spans, spans[1:]):
            assert a.end < b.start  # non-overlapping, non-nesting
        n_opens = sum(o is not None for o in opens)
        n_closes = sum(c is not None for c in closes)
        assert len(spans) <= min(n_opens, n_closes)


def clause_pairs(spans):
    """The (start, end) pairs of clause spans, in their order."""
    return [(s.start, s.end) for s in spans]


class TestBalanceClauses:
    def test_empty(self):
        assert balance_clauses([], [], 5) == []

    def test_nested_pair(self):
        forest = balance_clauses({0, 2}, {4}, 7)
        assert clause_pairs(forest) == [(0, 5), (2, 4)]

    def test_rule4_then_rule5(self):
        forest = balance_clauses({0}, {1}, 6)
        assert clause_pairs(forest) == [(0, 4)]

    def test_open_only(self):
        forest = balance_clauses({0}, [], 9)
        assert clause_pairs(forest) == [(0, 7)]

    def test_close_without_open_ignored(self):
        assert balance_clauses([], {3}, 6) == []

    def test_four_clause_sentence(self):
        # Coach them in handling complaints so that they can resolve
        # problems immediately .
        forest = balance_clauses({0, 3, 5, 7}, [4, 11, 11, 12], 13)
        assert clause_pairs(forest) == [(0, 12), (3, 4), (5, 11), (7, 11)]

    def test_duplicate_opens_collapse(self):
        forest = balance_clauses([2, 2, 2], [5], 8)
        assert clause_pairs(forest) == [(2, 5)]

    def test_rule5_crossing_repair(self):
        # inner clause closed at the final token forces the outer to the end
        forest = balance_clauses({0, 3}, {6}, 7)
        assert clause_pairs(forest) == [(0, 6), (3, 6)]

    def test_single_token_sentence(self):
        forest = balance_clauses({0}, [], 1)
        assert clause_pairs(forest) == [(0, 0)]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            balance_clauses({5}, [], 3)
        with pytest.raises(DomainError):
            balance_clauses([], {-1}, 3)


def assert_proper_forest(forest, length, open_positions):
    spans = clause_pairs(forest)
    for s, e in spans:
        assert 0 <= s <= e < length
        assert s in open_positions
    for a in spans:
        for b in spans:
            if a == b:
                continue
            disjoint = a[1] < b[0] or b[1] < a[0]
            nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
            assert disjoint or nested


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.data())
def test_balance_clauses_always_properly_nested(length, data):
    opens = data.draw(st.sets(st.integers(0, length - 1), max_size=6))
    closes = data.draw(st.lists(st.integers(0, length - 1), max_size=8))
    forest = balance_clauses(opens, closes, length)
    assert_proper_forest(forest, length, opens)


@st.composite
def clause_sets(draw):
    """A sentence length and properly nested "S" spans over it in which no
    two spans share a start or an end, and a span that starts at token 0
    ends at the last token: what one open and one close label per token
    can express.  Drawn pairs are kept in order when they fit the ones
    kept before."""
    length = draw(st.integers(1, 14))
    position = st.integers(0, length - 1)
    spans = []
    for a, b in draw(st.lists(st.tuples(position, position), max_size=10)):
        start, end = sorted((a, b))
        if start == 0:
            end = length - 1
        if all(start != t.start and end != t.end and (
            end < t.start or t.end < start  # disjoint
            or start < t.start and t.end < end or t.start < start and end < t.end  # nested
        ) for t in spans):
            spans.append(ChunkSpan(start, end, "S"))
    return length, sorted(spans)


@settings(max_examples=300, deadline=None)
@given(clause_sets())
def test_balance_clauses_round_trips_nested_clauses(drawn):
    length, spans = drawn
    starts = {s.start for s in spans}
    ends = [s.end for s in spans]
    assert balance_clauses(starts, ends, length) == spans


# ---------------------------------------------------------------------------
# The array codec against the sentence-by-sentence reference codec.

ALL_STREAMS = list(IO_SCHEMES) + [Scheme.O, Scheme.C]
_KINDS = ["O", "I", "B", "E", "X", "(", ")", ".", ""]
_TYPES = [None, "NP", "VP", ""]


@st.composite
def tag_corpora(draw):
    """Sentences (empty ones too) of tags, well-formed or not: I after O, E
    with no start, unknown kinds, type changes and bare or empty suffixes."""
    tag = st.builds(lambda k, t: k if t is None else f"{k}-{t}",
                    st.sampled_from(_KINDS), st.sampled_from(_TYPES))
    return draw(st.lists(st.lists(tag, max_size=8), max_size=5))


@st.composite
def span_corpora(draw):
    """Sentences and their spans: adjacent, one-token and typed spans, and
    now and then a span past its sentence's end or over another span."""
    lengths = draw(st.lists(st.integers(0, 8), max_size=5))
    spans = []
    for n in lengths:
        group = []
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, n + 1))
            end = draw(st.integers(start, start + 3))
            group.append(ChunkSpan(start, end, draw(st.sampled_from(["NP", "VP", "PP"]))))
        spans.append(group)
    return lengths, spans


def _outcome(call):
    try:
        return "ok", call()
    except DomainError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(tags=tag_corpora(), default_type=st.sampled_from(["NP", "CH"]))
def test_decode_tags_matches_reference(tags, default_type):
    lengths = [len(t) for t in tags]
    flat = [t for sentence in tags for t in sentence]
    for scheme in IO_SCHEMES:
        spans = decode_tags(flat, lengths, scheme, default_type)
        expected = [decode_sentence(t, scheme, default_type) for t in tags]
        assert spans.lists() == expected
        assert [decode(t, scheme, default_type) for t in tags] == expected
    for scheme in (Scheme.O, Scheme.C):
        with pytest.raises(DomainError, match="alone does not determine spans"):
            decode_tags(flat, lengths, scheme)


@settings(max_examples=150, deadline=None)
@given(tags=tag_corpora(), default_type=st.sampled_from(["NP", "CH"]))
def test_convert_matches_reference(tags, default_type):
    for src in IO_SCHEMES:
        for dst in ALL_STREAMS + [Scheme.OC]:
            expected = [convert_sentence(t, src, dst, default_type) for t in tags]
            assert [convert(t, src, dst, default_type) for t in tags] == expected


@settings(max_examples=300, deadline=None)
@given(corpus=span_corpora())
def test_tag_codes_match_reference(corpus):
    lengths, spans = corpus
    expected = _outcome(
        lambda: [encode_sentence(g, Scheme.IOB1, n) for g, n in zip(spans, lengths)])
    arrays = _outcome(lambda: SpanArrays.of(spans, lengths))
    assert arrays[0] == expected[0]
    if arrays[0] != "ok":
        assert arrays[1] == expected[1]  # the same first bad span, the same words
        return
    arrays = arrays[1]
    assert arrays.lists() == [sorted(g) for g in spans]
    for typed in (False, True):
        for scheme in ALL_STREAMS:
            tags = [t for g, n in zip(spans, lengths)
                    for t in encode_sentence(g, scheme, n, typed=typed)]
            classes, codes = tag_codes(arrays, scheme, typed)
            expected_classes, expected_codes = code_column(tags)
            assert list(classes.items()) == list(expected_classes.items())
            assert codes.dtype == expected_codes.dtype
            assert codes.tolist() == expected_codes.tolist()
        for g, n in zip(spans, lengths):
            for scheme in ALL_STREAMS + [Scheme.OC]:
                expected = encode_sentence(g, scheme, n, typed=typed)
                assert encode(g, scheme, n, typed=typed) == expected
