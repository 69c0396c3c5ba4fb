"""Chunk tag-scheme codecs and bracket-stream repair.

Five ways to write the same flat chunk structure as one tag per token:

    IOB1  chunk-initial tokens get B only when needed to separate chunks
    IOB2  every chunk-initial token gets B
    IOE1  chunk-final tokens get E only when needed
    IOE2  every chunk-final token gets E
    O / C independent open- and close-bracket streams ("(", ")", ".")

O and C alone under-determine spans; the pair (``Scheme.OC``) is a full
representation.  Typed tags carry a "-TYPE" suffix ("B-NP", "(-VP").
Decoders are permissive: any tag sequence decodes to some valid span set.

The codec works on a whole corpus at once, in numpy: ``decode_tags`` reads
the spans of every sentence's tags into ``SpanArrays``, and ``tag_codes``
writes the tags of any scheme from them, coded in order of first occurrence
(the chunker reads its brackets from decoded spans).  ``encode``, ``decode``
and ``convert`` are the same codec over a corpus of one sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .learner import code_column, code_dtype


class Scheme(Enum):
    IOB1 = "IOB1"
    IOB2 = "IOB2"
    IOE1 = "IOE1"
    IOE2 = "IOE2"
    O = "O"
    C = "C"
    OC = "O+C"  # composite: per-token (open tag, close tag) pairs


@dataclass(frozen=True, order=True, slots=True)
class ChunkSpan:
    """A labeled token range, inclusive on both ends."""

    start: int
    end: int
    type: str = "NP"

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DomainError(f"bad span ({self.start}, {self.end})")


@dataclass(frozen=True)
class ClauseNode:
    start: int
    end: int
    children: tuple["ClauseNode", ...] = ()

    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


def _tag(kind: str, typ: str | None) -> str:
    return kind if typ is None else f"{kind}-{typ}"


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split "B-NP" into ("B", "NP"); bare tags get type None."""
    kind, sep, typ = tag.partition("-")
    return (kind, typ if sep else None)


@dataclass(frozen=True, eq=False)
class SpanArrays:
    """The chunk spans of a corpus, flat or nested as in a tree, as arrays
    over its rows (its tokens, sentence after sentence).  Span i covers rows
    ``starts[i]`` to ``ends[i]`` of sentence ``sentence[i]`` and has type
    ``types[type_codes[i]]``; ``types`` is sorted, and the spans by
    sentence, start, end and type.  ``lengths`` holds the sentence lengths.
    """

    lengths: np.ndarray
    sentence: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    type_codes: np.ndarray
    types: tuple[str, ...]

    @staticmethod
    def of(spans, lengths: Sequence[int], nested: bool = False) -> "SpanArrays":
        """One ``ChunkSpan`` iterable per sentence of ``lengths`` as arrays
        (``SpanArrays`` as they are).  Raises ``DomainError`` where
        ``encode`` does: at the first span, in sorted order, that ends past
        its sentence or, unless ``nested``, overlaps the span before it."""
        if isinstance(spans, SpanArrays):
            return spans
        lengths = np.asarray(lengths, dtype=np.intp)
        groups = [list(g) for g in spans]
        if len(groups) != len(lengths):
            raise DomainError("spans do not line up with the sentences")
        flat = [s for g in groups for s in g]
        types = tuple(sorted({s.type for s in flat}))
        code = {t: i for i, t in enumerate(types)}
        columns = [np.repeat(np.arange(len(groups)), [len(g) for g in groups])]
        columns += [np.fromiter(map(f, flat), np.intp, len(flat))
                    for f in (lambda s: s.start, lambda s: s.end, lambda s: code[s.type])]
        sentence, start, end, codes = (c[np.lexsort(columns[::-1])] for c in columns)
        exceeds = end >= lengths[sentence]
        overlaps = np.zeros(len(flat), dtype=bool)
        overlaps[1:] = (sentence[1:] == sentence[:-1]) & (start[1:] <= end[:-1]) & (not nested)
        for i in np.flatnonzero(exceeds | overlaps)[:1].tolist():
            span = ChunkSpan(int(start[i]), int(end[i]), types[codes[i]])
            if exceeds[i]:
                raise DomainError(f"span {span} exceeds sentence length {lengths[sentence[i]]}")
            raise DomainError(f"span {span} overlaps a preceding span")
        first = (np.cumsum(lengths) - lengths)[sentence]
        return SpanArrays(lengths, sentence, start + first, end + first, codes, types)

    def where(self, keep: np.ndarray) -> "SpanArrays":
        """The spans that the mask ``keep`` keeps."""
        kept = (a[keep] for a in (self.sentence, self.starts, self.ends, self.type_codes))
        return SpanArrays(self.lengths, *kept, self.types)

    def lists(self) -> list[list[ChunkSpan]]:
        """The spans of each sentence, as sorted ``ChunkSpan`` lists."""
        out: list[list[ChunkSpan]] = [[] for _ in self.lengths]
        first = (np.cumsum(self.lengths) - self.lengths)[self.sentence]
        for si, a, b, t in zip(*(c.tolist() for c in (
            self.sentence, self.starts - first, self.ends - first, self.type_codes
        ))):
            out[si].append(ChunkSpan(a, b, self.types[t]))
        return out


_KINDS = {Scheme.O: (".", "("), Scheme.C: (".", ")")}  # others: O, I, B, E


def tag_codes(spans: SpanArrays, scheme: Scheme, typed=True) -> tuple[dict[str, int], np.ndarray]:
    """Every row's tag under ``scheme`` (any but O+C), coded: a dict from
    each tag to its code, in order of first occurrence, and the rows' codes
    in the ``code_dtype`` of that table.  ``typed`` keeps type suffixes.
    The tags are those of ``encode``."""
    st, en, ty = spans.starts, spans.ends, spans.type_codes
    n, ntypes = int(spans.lengths.sum()), len(spans.types)
    edges = np.zeros(n + 1, dtype=np.intp)
    edges[st] += 1
    edges[en + 1] -= 1
    inside = np.cumsum(edges[:n]) > 0
    row_type = np.full(n, ntypes)
    if typed:
        row_type[inside] = np.repeat(ty, en - st + 1)
    kind = np.zeros(n, dtype=np.intp)
    if scheme in _KINDS:
        kind[st if scheme is Scheme.O else en] = 1
    else:
        kind[inside] = 1
        # only same-type adjacency is ambiguous; a type change marks the boundary
        adjacent = np.flatnonzero(
            (st[1:] == en[:-1] + 1)
            & (spans.sentence[1:] == spans.sentence[:-1])
            & ((ty[1:] == ty[:-1]) | (not typed))
        )
        # IOB1 marks the later chunk of each adjacent pair, IOE1 the earlier
        marked = {Scheme.IOB1: st[adjacent + 1], Scheme.IOB2: st,
                  Scheme.IOE1: en[adjacent], Scheme.IOE2: en}[scheme]
        kind[marked] = 2 if scheme in (Scheme.IOB1, Scheme.IOB2) else 3
    key = kind * (ntypes + 1) + np.where(kind > 0, row_type, ntypes)
    distinct, first = np.unique(key, return_index=True)
    distinct = distinct[np.argsort(first)]
    recode = np.zeros(int(distinct.max()) + 1 if n else 1, dtype=np.intp)
    recode[distinct] = np.arange(len(distinct))
    kinds, types = _KINDS.get(scheme, ("O", "I", "B", "E")), spans.types + (None,)
    tags = [_tag(kinds[k // (ntypes + 1)], types[k % (ntypes + 1)]) for k in distinct.tolist()]
    return dict(zip(tags, range(len(tags)))), recode[key].astype(code_dtype(len(tags)))


def decode_tags(
    tags: Sequence[str], lengths: Sequence[int], scheme: Scheme, default_type: str = "NP"
) -> SpanArrays:
    """The spans of a corpus's tags (its sentences of ``lengths`` end to
    end) under an IOB or IOE scheme, as permissive as ``decode``: any tag
    but O and the scheme's B or E continues or opens a span, and a tag
    without a type has ``default_type``."""
    if scheme in (Scheme.O, Scheme.C):
        raise DomainError(f"{scheme.value} alone does not determine spans; decode O+C pairs")
    if scheme is Scheme.OC:
        raise DomainError("O+C tags are (open, close) pairs, not one tag per token")
    lengths = np.asarray(lengths, dtype=np.intp)
    if len(tags) != lengths.sum():
        raise DomainError("tags do not line up with the sentences")
    table, codes = code_column(tags)
    breaker = "B" if scheme in (Scheme.IOB1, Scheme.IOB2) else "E"
    split = [split_tag(tag) for tag in table]
    types = tuple(sorted({typ or default_type for _, typ in split}))
    kind = np.array([(k != "O") + (k == breaker) for k, _ in split], np.int8)[codes]
    typ = np.array([types.index(t or default_type) for _, t in split], np.intp)[codes]
    inspan = kind != 0
    # a row continues the span of the row before when both are in a span of
    # one type in one sentence, and no B opens the row (IOB) or E closed the
    # row before (IOE)
    cont = np.zeros(len(codes), dtype=bool)
    cont[1:] = inspan[1:] & inspan[:-1] & (typ[1:] == typ[:-1])
    cont[1:] &= (kind[1:] if breaker == "B" else kind[:-1]) != 2
    ends = np.cumsum(lengths)
    cont[(ends - lengths)[lengths > 0]] = False
    starts = np.flatnonzero(inspan & ~cont)
    last = np.flatnonzero(inspan & ~np.append(cont[1:], False))
    sentence = np.searchsorted(ends, starts, side="right")
    return SpanArrays(lengths, sentence, starts, last, typ[starts], types)


def encode(spans: Iterable[ChunkSpan], scheme: Scheme, length: int, typed: bool = True):
    """Tag sequence for a flat span set, (open, close) pairs under O+C.  With
    ``typed`` off, type suffixes are dropped (single-chunk-type corpora)."""
    arrays = SpanArrays.of([spans], [length])

    def tags(stream):
        table, codes = tag_codes(arrays, stream, typed)
        return list(map(list(table).__getitem__, codes.tolist()))

    if scheme is Scheme.OC:
        return list(zip(tags(Scheme.O), tags(Scheme.C)))
    return tags(scheme)


def decode(tags: Sequence, scheme: Scheme, default_type: str = "NP") -> list[ChunkSpan]:
    """Span set for a tag sequence; total (permissive) over malformed input.

    ``Scheme.OC`` expects per-token (open tag, close tag) pairs.  A lone O or
    C stream under-determines spans and is rejected; ``mark_type`` reads one
    of its tags.
    """
    if scheme is Scheme.OC:
        opens = [mark_type(o, default_type) for o, _ in tags]
        closes = [mark_type(c, default_type) for _, c in tags]
        return balance_brackets(opens, closes)
    return decode_tags(tags, [len(tags)], scheme, default_type).lists()[0]


def mark_type(tag: str, default_type: str) -> str | None:
    kind, typ = split_tag(tag)
    if kind in ("(", ")"):
        return typ or default_type
    return None


def convert(tags: Sequence, src: Scheme, dst: Scheme, default_type: str = "NP"):
    """Re-encode a tag sequence; equals encode(decode(tags)).  Whether the
    output carries type suffixes follows the input."""
    if src in (Scheme.O, Scheme.C):
        raise DomainError(f"cannot convert from a lone {src.value} stream")
    flat = [t for pair in tags for t in pair] if src is Scheme.OC else tags
    typed = any(split_tag(t)[1] for t in flat)
    return encode(decode(tags, src, default_type), dst, len(tags), typed=typed)


def balance_brackets(opens: Sequence[str | None], closes: Sequence[str | None]) -> list[ChunkSpan]:
    """Repair independent open/close mark streams into a flat span set.

    Left-to-right matching: opens push; a close pops the nearest open of its
    type, which also discards any opens pushed before it (a flat structure
    cannot use them without crossing).  Unmatched marks are dropped.
    """
    if len(opens) != len(closes):
        raise DomainError("open and close streams differ in length")
    stack: list[tuple[int, str]] = []
    spans: list[ChunkSpan] = []
    for i in range(len(opens)):
        otyp = opens[i]
        if otyp is not None:
            stack.append((i, otyp))
        ctyp = closes[i]
        if ctyp is None:
            continue
        pick = next((j for j in range(len(stack) - 1, -1, -1) if stack[j][1] == ctyp), None)
        if pick is None:
            continue
        spans.append(ChunkSpan(stack[pick][0], i, ctyp))
        stack.clear()
    return spans


def balance_clauses(
    opens: Iterable[int], closes: Iterable[int], length: int
) -> list[ClauseNode]:
    """Build a properly nested clause forest from predicted bracket positions.

    One clause starts per distinct open position.  Closes pop the innermost
    open clause; duplicate closes at one position pop successively.  A close
    is ignored when no clause is open, or when it would end a clause started
    at token 0 anywhere but the final token.  Clauses left open are closed at
    the penultimate token, or at the final token when the penultimate would
    cross a clause already built.
    """
    open_set = set(opens)
    if any(i < 0 or i >= length for i in open_set):
        raise DomainError("open position out of range")
    close_counts: dict[int, int] = {}
    for i in closes:
        if i < 0 or i >= length:
            raise DomainError("close position out of range")
        close_counts[i] = close_counts.get(i, 0) + 1

    stack: list[int] = []
    built: list[tuple[int, int]] = []
    for i in range(length):
        if i in open_set:
            stack.append(i)
        for _ in range(close_counts.get(i, 0)):
            if not stack:
                continue
            if stack[-1] == 0 and i != length - 1:
                continue
            built.append((stack.pop(), i))

    while stack:
        start = stack.pop()  # innermost first
        end = length - 2 if length >= 2 else length - 1
        if end < start or any(start < s <= end < e for s, e in built):
            end = length - 1
        built.append((start, end))

    return _nest(built)


def _nest(spans: list[tuple[int, int]]) -> list[ClauseNode]:
    """Assemble (start, end) pairs, assumed non-crossing, into a forest."""
    ordered = sorted(spans, key=lambda p: (p[0], -p[1]))
    roots: list[ClauseNode] = []
    path: list[tuple[tuple[int, int], list]] = []  # (span, children accumulator)
    for span in ordered:
        while path and not (path[-1][0][0] <= span[0] and span[1] <= path[-1][0][1]):
            _finish(path, roots)
        path.append((span, []))
    while path:
        _finish(path, roots)
    return roots


def _finish(path, roots):
    (start, end), children = path.pop()
    node = ClauseNode(start, end, tuple(children))
    if path:
        path[-1][1].append(node)
    else:
        roots.append(node)


def clause_spans(forest: Iterable[ClauseNode]) -> list[tuple[int, int]]:
    """All (start, end) pairs of a clause forest, depth-first."""
    out = []

    def walk(node: ClauseNode):
        out.append((node.start, node.end))
        for child in node.children:
            walk(child)

    for root in forest:
        walk(root)
    return sorted(out)
