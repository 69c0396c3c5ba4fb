from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbparse.config import (
    apply_overrides,
    get_bool,
    get_float,
    get_int,
    load_config,
    validate_config,
)
from mbparse.corpus import (
    column_index,
    decode_brackets,
    encode_bracket_column,
    encode_clause_column,
    read_corpus,
    token_cells,
    write_corpus,
)
from mbparse.errors import ConfigError, CorpusError, DomainError
from mbparse.features import CodedCorpus, Token
from mbparse.schemes import ChunkSpan, ClauseNode, clause_spans
from references import corpus_tokens, decode_clause_column, read_corpus_rows, to_tokens

TWO_SENTENCES = [
    [("In", "IN", "O"), ("early", "JJ", "I"), ("trading", "NN", "I")],
    [("Gold", "NNP", "I"), ("rose", "VBD", "O"), (".", ".", "O")],
]


class TestReadWrite:
    def test_round_trip_tab(self, tmp_path):
        path = tmp_path / "c.txt"
        write_corpus(TWO_SENTENCES, path)
        sentences, columns = read_corpus(path)
        assert sentences == [
            [tuple(r) for r in s] for s in TWO_SENTENCES
        ]
        assert columns == ("word", "pos", "chunk")

    def test_round_trip_space(self, tmp_path):
        path = tmp_path / "c.txt"
        write_corpus(TWO_SENTENCES, path, sep=" ")
        sentences, _ = read_corpus(path)
        assert len(sentences) == 2
        assert sentences[0][0] == ("In", "IN", "O")

    def test_header_declares_columns(self, tmp_path):
        path = tmp_path / "c.txt"
        write_corpus(TWO_SENTENCES, path, columns=("word", "pos", "chunk"))
        assert path.read_text().startswith("#columns: word pos chunk\n")
        _, columns = read_corpus(path, columns=("ignored",))
        assert columns == ("word", "pos", "chunk")

    def test_two_sentences_one_blank_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tB\n\nb\tC\n")
        sentences, _ = read_corpus(path, columns=("word", "pos"))
        assert len(sentences) == 2

    def test_no_trailing_blank_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tB")
        sentences, _ = read_corpus(path, columns=("word", "pos"))
        assert sentences == [[("a", "B")]]

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tB\tO\nb\tC\n")
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus(path)

    def test_fewer_columns_than_declared(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("#columns: word pos chunk\na\tB\n")
        with pytest.raises(CorpusError):
            read_corpus(path)


class TestTokenBridge:
    def test_to_tokens(self):
        toks = to_tokens(TWO_SENTENCES[0], ("word", "pos", "chunk"))
        assert toks[1] == Token("early", "JJ", "I")

    def test_to_tokens_without_chunk(self):
        toks = to_tokens(TWO_SENTENCES[0], ("word", "pos", "chunk"), with_chunks=False)
        assert toks[0].chunk_tag is None

    def test_missing_role(self):
        with pytest.raises(DomainError):
            column_index(("word",), "pos")


class TestBracketColumns:
    def test_round_trip(self):
        spans = [
            ChunkSpan(0, 5, "S"),
            ChunkSpan(0, 1, "NP"),
            ChunkSpan(2, 2, "VP"),
            ChunkSpan(3, 5, "NP"),
            ChunkSpan(4, 5, "NP"),
        ]
        cells = encode_bracket_column(spans, 6)
        assert decode_brackets(cells, [6]).lists() == [sorted(spans)]

    def test_cell_shapes(self):
        spans = [ChunkSpan(0, 2, "S"), ChunkSpan(0, 0, "NP")]
        cells = encode_bracket_column(spans, 3)
        assert cells == ["(S(NP*NP)", "*", "*S)"]

    def test_unbalanced_rejected(self):
        with pytest.raises(CorpusError):
            decode_brackets(["(S*", "*"], [2])
        with pytest.raises(CorpusError):
            decode_brackets(["*S)"], [1])
        with pytest.raises(CorpusError):
            decode_brackets(["no-star"], [1])

    def test_clause_column(self):
        forest = [ClauseNode(0, 3, (ClauseNode(1, 2),))]
        cells = encode_clause_column(forest, 4)
        assert cells == ["(S*", "(S*", "*S)", "*S)"]
        decoded = decode_clause_column(cells)
        assert clause_spans(decoded) == [(0, 3), (1, 2)]


CONFIG_TEXT = """\
[learner]
k = 5
fallback = yes

[run]
workers = 11
"""


class TestConfig:
    def test_load(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG_TEXT)
        cfg = load_config(path)
        assert get_int(cfg, "learner", "k", 3) == 5
        assert get_bool(cfg, "learner", "fallback", False) is True
        assert get_int(cfg, "run", "workers", 0) == 11
        assert get_float(cfg, "eval", "beta", 1.0) == 1.0  # default

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[learner]\nk = 3\nbogus = 1\n[nosuch]\nx = 2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "learner.bogus" in str(err.value)
        assert "nosuch" in str(err.value)

    def test_overrides_win(self):
        cfg = {"learner": {"k": "3"}}
        out = apply_overrides(cfg, {"learner.k": "7"})
        assert out["learner"]["k"] == "7"

    def test_override_must_be_dotted(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, {"k": "7"})

    def test_bad_values(self):
        cfg = {"learner": {"k": "three", "fallback": "maybe"}}
        validate_config(cfg)
        with pytest.raises(ConfigError):
            get_int(cfg, "learner", "k", 3)
        with pytest.raises(ConfigError):
            get_bool(cfg, "learner", "fallback", True)


# ---------------------------------------------------------------------------
# The reader against the line-by-line reference.

_BREAKS = ["\n", "\r\n", "\r", "\u2028", "\x85", "\x0c", "\x1e"]
_BLANKS = ["", " ", "\t", " \t ", "\u3000"]
_CELLS = st.sampled_from(["a", "Bb", "NN", "(S*", "*S)", "I-NP", "é", "x y", "", "", "__"])


@st.composite
def corpus_texts(draw):
    """The text of a column file: an optional header, rows of tab- or
    space-separated cells (now and then ragged or with an empty cell), runs
    of blank and whitespace-only lines, any line break."""
    lines = []
    if draw(st.booleans()):
        roles = draw(st.lists(st.sampled_from(["word", "pos", "chunk", "tree"]),
                              min_size=1, max_size=4, unique=True))
        lines.append("#columns: " + " ".join(roles))
    width = draw(st.integers(1, 4))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(_BLANKS)))
            continue
        n = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        sep = draw(st.sampled_from(["\t", "\t", " ", "  "]))
        lines.append(sep.join(draw(st.lists(_CELLS, min_size=n, max_size=n))))
    text = "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def _outcome(call):
    try:
        return "ok", call()
    except (CorpusError, DomainError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(text=corpus_texts(), with_chunks=st.booleans(), non_utf8=st.booleans(),
       data=st.data())
def test_reader_matches_line_by_line_reader(text, with_chunks, non_utf8, data, tmp_path_factory):
    raw = text.encode("utf-8")
    if non_utf8:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    path = tmp_path_factory.mktemp("reader") / "c.txt"
    path.write_bytes(raw)
    expected = _outcome(lambda: read_corpus_rows(path))
    got = _outcome(lambda: read_corpus(path))
    assert got[0] == expected[0]
    if got[0] != "ok":
        assert got[1] == expected[1]
        return
    (file, columns), (sentences, expected_columns) = got[1], expected[1]
    assert columns == expected_columns and file == sentences
    assert file.lengths == [len(s) for s in sentences]
    # every row's line number: the lines of the reference's rows, in order
    body = raw.decode("utf-8").splitlines()
    start = 1 if body and body[0].startswith("#columns:") else 0
    numbers = [i + 1 for i in range(start, len(body)) if body[i].strip()]
    assert file.lines.tolist() == numbers
    ends = list(accumulate(map(len, sentences)))
    tokens = _outcome(lambda: [to_tokens(s, columns, with_chunks, numbers[b - len(s):b], path)
                               for s, b in zip(sentences, ends)])
    cells = _outcome(lambda: token_cells(file, with_chunks))
    assert cells[0] == tokens[0]
    if cells[0] != "ok":
        assert cells[1] == tokens[1]
        return
    assert corpus_tokens(CodedCorpus(lengths=file.lengths, cells=cells[1])) == tokens[1]
