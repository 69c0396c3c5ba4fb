"""Column-format corpus files: one token per row, blank line between sentences.

Columns are tab- or space-separated.  Column roles (word, pos, chunk, clause,
tree) come from an optional ``#columns:`` header line or from the caller.
Bracket columns use the nested form "(S*", "*S)", "(NP(NP*" familiar from
shared-task data.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import CorpusError, DomainError
from .features import Token
from .schemes import ChunkSpan, ClauseNode, _nest, clause_spans

DEFAULT_COLUMNS = ("word", "pos", "chunk")

RawSentence = list[tuple[str, ...]]


def read_corpus(path, columns: Sequence[str] | None = None):
    """Parse a corpus file into sentences of column tuples.

    Returns (sentences, columns).  A ``#columns: word pos chunk`` header
    declares roles; otherwise ``columns`` (or the default) applies.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: {exc}") from None

    start = 0
    if lines and lines[0].startswith("#columns:"):
        columns = tuple(lines[0][len("#columns:") :].split())
        start = 1
    elif columns is None:
        columns = DEFAULT_COLUMNS
    columns = tuple(columns)

    sep = None  # None splits on any whitespace
    for line in lines[start:]:
        if line.strip():
            if "\t" in line:
                sep = "\t"
            break

    sentences: list[RawSentence] = []
    current: RawSentence = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        fields = tuple(line.split(sep))
        if width is None:
            width = len(fields)
            if width < len(columns):
                raise CorpusError(
                    f"{len(columns)} columns declared but rows have {width}", lineno
                )
        elif len(fields) != width:
            raise CorpusError(
                f"expected {width} columns, got {len(fields)}", lineno
            )
        current.append(fields)
    if current:
        sentences.append(current)
    return sentences, columns


def write_corpus(
    sentences: Iterable[RawSentence],
    path,
    columns: Sequence[str] | None = None,
    sep: str = "\t",
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if columns:
            fh.write("#columns: " + " ".join(columns) + "\n")
        first = True
        for sentence in sentences:
            if not first:
                fh.write("\n")
            first = False
            for row in sentence:
                fh.write(sep.join(row) + "\n")


def column_index(columns: Sequence[str], role: str) -> int:
    try:
        return list(columns).index(role)
    except ValueError:
        raise DomainError(f"corpus has no {role!r} column (has {list(columns)})") from None


def to_tokens(
    sentence: RawSentence, columns: Sequence[str], with_chunks: bool = True
) -> list[Token]:
    wi = column_index(columns, "word")
    pi = column_index(columns, "pos")
    ci = list(columns).index("chunk") if "chunk" in columns and with_chunks else None
    return [
        Token(row[wi], row[pi], row[ci] if ci is not None else None)
        for row in sentence
    ]


def from_tokens(tokens: Sequence[Token], extra: Sequence[Sequence[str]] = ()) -> RawSentence:
    """Rows of word, pos, then any extra aligned columns."""
    rows = []
    for i, tok in enumerate(tokens):
        rows.append((tok.word, tok.pos, *(col[i] for col in extra)))
    return rows


# ---------------------------------------------------------------------------
# Bracket columns ("(S*S)" style) for clause and tree structures.

_OPEN_RE = re.compile(r"\(([^()*]+)")


def encode_bracket_column(spans: Iterable[ChunkSpan], length: int) -> list[str]:
    """Nested typed brackets, one cell per token: "(S(NP*", "*NP)", "*"."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end, s.type))
    opens: list[list[str]] = [[] for _ in range(length)]
    closes: list[list[str]] = [[] for _ in range(length)]
    for s in ordered:
        if s.end >= length:
            raise DomainError(f"span {s} exceeds length {length}")
        opens[s.start].append(s.type)
    for s in sorted(spans, key=lambda s: (s.end, s.start, s.type), reverse=True):
        closes[s.end].append(s.type)  # innermost (latest start) first
    return [
        "".join(f"({t}" for t in opens[i]) + "*" + "".join(f"{t})" for t in closes[i])
        for i in range(length)
    ]


def decode_bracket_column(cells: Sequence[str]) -> list[ChunkSpan]:
    """Inverse of ``encode_bracket_column``; raises on unbalanced columns."""
    stack: list[tuple[int, str]] = []
    spans: list[ChunkSpan] = []
    for i, cell in enumerate(cells):
        star = cell.find("*")
        if star < 0:
            raise CorpusError(f"bracket cell {cell!r} lacks '*'", None)
        for typ in _OPEN_RE.findall(cell[:star]):
            stack.append((i, typ))
        rest = cell[star + 1 :]
        while rest:
            m = re.match(r"([^()*]+)\)", rest)
            if not m:
                raise CorpusError(f"malformed bracket cell {cell!r}", None)
            typ = m.group(1)
            if not stack or stack[-1][1] != typ:
                raise CorpusError(f"unbalanced {typ!r} close in column", None)
            start, _ = stack.pop()
            spans.append(ChunkSpan(start, i, typ))
            rest = rest[m.end() :]
    if stack:
        raise CorpusError(f"unclosed {stack[-1][1]!r} bracket in column", None)
    return sorted(spans)


def encode_clause_column(forest: Sequence[ClauseNode], length: int) -> list[str]:
    spans = [ChunkSpan(s, e, "S") for s, e in clause_spans(forest)]
    return encode_bracket_column(spans, length)


def decode_clause_column(cells: Sequence[str]) -> list[ClauseNode]:
    spans = decode_bracket_column(cells)
    return _nest([(s.start, s.end) for s in spans])
