"""Column-format corpus files: one token per row, blank line between sentences.

Columns are tab- or space-separated.  Column roles (word, pos, chunk, clause,
tree) come from an optional ``#columns:`` header line or from the caller.
``read_corpus`` reads a file once into a ``ColumnFile``: each column's cells
token after token, the sentence lengths and each token's line number; it
makes no object per token.  Bracket columns use the nested form "(S*",
"*S)", "(NP(NP*" familiar from shared-task data.  ``decode_brackets`` reads
a whole column into ``schemes.SpanArrays``: it parses each distinct cell
once and pairs the brackets of every sentence by their depth in one sort;
a cell that does not parse, or a bracket that does not match, is reported
with its file and line.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import compress, repeat
from typing import Iterable

import numpy as np

from .errors import CorpusError, DomainError
from .features import ranges
from .learner import PAD, code_column
from .schemes import ChunkSpan, ClauseNode, SpanArrays, clause_spans

DEFAULT_COLUMNS = ("word", "pos", "chunk")

RawSentence = list[tuple[str, ...]]


class ColumnFile(Sequence):
    """A corpus file as read: each column's cells, token after token, each
    sentence's token count and each token's line number in the file.

    It reads as its list of sentences, each a list of row tuples, built on
    demand; the work itself reads the cells."""

    def __init__(self, path, columns, cells, lengths: list[int], lines: np.ndarray):
        self.path = path
        self.columns = columns
        self.cells = cells  # one list of cells per column of the file
        self.lengths = lengths
        ends = np.cumsum(lengths, dtype=np.intp).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))  # each sentence's rows
        self.lines = lines

    def column(self, role: str) -> list[str]:
        return self.cells[column_index(self.columns, role)]

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        a, b = self.bounds[index]
        return list(zip(*(column[a:b] for column in self.cells)))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


def read_corpus(path, columns: Sequence[str] | None = None) -> tuple[ColumnFile, tuple[str, ...]]:
    """Read a corpus file once into its columns' cells.

    Returns (file, columns).  A ``#columns: word pos chunk`` header
    declares roles; otherwise ``columns`` (or the default) applies.  Lines
    break as ``str.splitlines`` breaks them, and a line of nothing but
    whitespace ends a sentence.  Cells are split at tabs when the first row
    holds one, else at runs of whitespace, and every row must have as many
    as the first, at least one per declared role.
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

    body = lines[start:]
    filled = list(map(bool, map(str.strip, body)))
    rows = list(compress(body, filled))
    numbers = np.flatnonzero(np.frombuffer(bytes(filled), dtype=bool)) + (start + 1)
    sep = "\t" if rows and "\t" in rows[0] else None  # None splits on any whitespace
    width = len(rows[0].split(sep)) if rows else len(columns)
    if width < len(columns):
        message = f"{len(columns)} columns declared but rows have {width}"
        raise CorpusError(message, int(numbers[0]))
    if sep:  # a row of w cells holds w - 1 tabs
        ragged = set(map(str.count, rows, repeat(sep))) - {width - 1}
    else:
        ragged = set(map(len, map(str.split, rows))) - {width}
    if ragged:
        i, got = next((i, n) for i, n in enumerate(len(r.split(sep)) for r in rows) if n != width)
        raise CorpusError(f"expected {width} columns, got {got}", int(numbers[i]))
    cells = (sep or " ").join(rows).split(sep) if rows else []  # every row's, end to end
    # a sentence is a run of rows on consecutive lines
    breaks = np.flatnonzero(np.diff(numbers) > 1) + 1
    lengths = np.diff(np.concatenate(([0], breaks, [len(rows)]))).tolist() if rows else []
    columns_cells = tuple(cells[j::width] for j in range(width))
    return ColumnFile(path, columns, columns_cells, lengths, numbers), columns


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


def token_cells(file: ColumnFile, with_chunks: bool = False) -> dict:
    """The cells of a file's words ("w"), POS tags ("p") and chunk tags
    ("c": None without a chunk column, or when not asked for).  A file of
    rows needs a word and a POS column, and a word in every row, and no
    cell it reads may be the learner's padding symbol; the first row at
    fault is reported."""
    if not len(file):
        return {"w": [], "p": [], "c": None}
    words, pos = file.column("word"), file.column("pos")
    chunks = file.column("chunk") if with_chunks and "chunk" in file.columns else None
    n = len(words)
    empty = words.index("") if "" in words else n
    padded = min((c.index(PAD) for c in (words, pos, chunks or ()) if PAD in c), default=n)
    if padded < n and padded <= empty:
        line = int(file.lines[padded])
        raise CorpusError(f"the cell {PAD!r} is reserved for padding", line, file.path)
    if empty < n:
        raise DomainError("token word must be non-empty")
    return {"w": words, "p": pos, "c": chunks}


# ---------------------------------------------------------------------------
# Bracket columns ("(S*S)" style) for clause and tree structures.

_OPEN_RE = re.compile(r"\(([^()*]+)")
_OPENS_RE = re.compile(r"(?:\([^()*]+)*")  # a cell's whole open side
_CLOSE_RE = re.compile(r"([^()*]+)\)")


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


def _parse_cell(cell: str) -> tuple[list[str], list[str], str | None]:
    """A bracket cell's open types, its close types up to the first that
    does not parse, and the message of what does not parse, or None.  An
    open side that does not parse leaves the cell no brackets."""
    star = cell.find("*")
    if star < 0:
        return [], [], f"bracket cell {cell!r} lacks '*'"
    if not _OPENS_RE.fullmatch(cell, 0, star):
        return [], [], f"malformed bracket cell {cell!r}"
    opens, closes, rest = _OPEN_RE.findall(cell, 0, star), [], cell[star + 1 :]
    while rest:
        m = _CLOSE_RE.match(rest)
        if not m:
            return opens, closes, f"malformed bracket cell {cell!r}"
        closes.append(m.group(1))
        rest = rest[m.end() :]
    return opens, closes, None


def decode_brackets(
    cells: Sequence[str], lengths: Sequence[int], lines=None, path=None
) -> SpanArrays:
    """The spans of a bracket column, the cells of sentences of ``lengths``
    end to end, with any duplicates; the inverse of ``encode_bracket_column``.

    Each distinct cell is parsed once.  A cell's opens, then its closes, are
    its brackets, and a close matches the last open before it at its depth
    in its sentence, so one sort of the column's brackets by depth pairs
    them all.  Raises the ``CorpusError`` that a reading of the cells one
    after another meets first, naming ``path`` and the line of the offending
    cell (``lines[i]`` for cell i) when given them."""
    lengths = np.asarray(lengths, dtype=np.intp)
    table, codes = code_column(cells)
    parsed = [_parse_cell(cell) for cell in table]
    types = tuple(sorted({t for opens, closes, _ in parsed for t in opens + closes}))
    type_code = {t: i for i, t in enumerate(types)}
    # every cell's brackets end to end, from its distinct cell's
    n_open = np.array([len(o) for o, _, _ in parsed] + [0], dtype=np.intp)[codes]
    count = np.array([len(o) + len(c) for o, c, _ in parsed] + [0], dtype=np.intp)[codes]
    first = np.cumsum([0] + [len(o) + len(c) for o, c, _ in parsed], dtype=np.intp)[codes]
    at = ranges(first, count)
    cell = np.repeat(np.arange(len(codes)), count)
    rank = at - first[cell]  # of the bracket in its cell
    btype = np.array([type_code[t] for o, c, _ in parsed for t in o + c], dtype=np.intp)[at]
    opens = rank < n_open[cell]
    step = np.where(opens, 1, -1)
    running = np.concatenate(([0], np.cumsum(step)))
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    base = running[np.searchsorted(cell, ends - lengths)]  # at each sentence's start
    final = running[np.searchsorted(cell, ends)] - base
    depth = running[:-1] - base[sentence[cell]]  # open brackets before it in its sentence
    level = depth - ~opens  # a close's level is the depth it leaves
    order = np.argsort(level, kind="stable")
    before = np.full(len(order), -1)
    before[order[1:]] = order[:-1]  # the bracket before it at its level
    b = np.maximum(before, 0)
    bad = np.flatnonzero(
        ~opens & ((before < 0) | ~opens[b] | (level[b] != level) | (btype[b] != btype))
    )
    failed = np.flatnonzero(np.array([m is not None for _, _, m in parsed] + [False])[codes])
    unclosed = np.flatnonzero(final > 0)
    # where a reading cell after cell meets each error, in steps of a cell:
    # a bad close in its turn, a cell's bad rest after its brackets, an
    # unclosed bracket after the sentence's last cell
    width = int(count.max(initial=0)) + 3
    keys = np.concatenate((cell[bad] * width + 1 + rank[bad], failed * width + 1 + count[failed],
                           (ends[unclosed] - 1) * width + width - 1))
    if len(keys):
        k = int(np.argmin(keys))
        if k < len(bad):
            j = bad[k]
            i, message = cell[j], f"unbalanced {types[btype[j]]!r} close in column"
        elif k < len(bad) + len(failed):
            i = failed[k - len(bad)]
            message = parsed[codes[i]][2]
        else:  # the innermost open bracket left at the sentence's end
            s = unclosed[k - len(bad) - len(failed)]
            j = np.flatnonzero(opens & (sentence[cell] == s) & (depth == final[s] - 1))[-1]
            i, message = cell[j], f"unclosed {types[btype[j]]!r} bracket in column"
        raise CorpusError(message, None if lines is None else int(lines[i]), path)
    start, end, typ = cell[order[0::2]], cell[order[1::2]], btype[order[0::2]]
    order = np.lexsort((typ, end, start))
    return SpanArrays(lengths, sentence[start[order]], start[order], end[order], typ[order], types)


def bracket_spans(file: ColumnFile, role: str) -> SpanArrays:
    """The spans of a file's bracket column ``role``, by ``decode_brackets``."""
    return decode_brackets(file.column(role), file.lengths, file.lines, file.path)


def encode_clause_column(forest: Sequence[ClauseNode], length: int) -> list[str]:
    spans = [ChunkSpan(s, e, "S") for s, e in clause_spans(forest)]
    return encode_bracket_column(spans, length)
