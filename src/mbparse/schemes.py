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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DomainError


class Scheme(Enum):
    IOB1 = "IOB1"
    IOB2 = "IOB2"
    IOE1 = "IOE1"
    IOE2 = "IOE2"
    O = "O"
    C = "C"
    OC = "O+C"  # composite: per-token (open tag, close tag) pairs


class MatchMode(Enum):
    SAME_TYPE = "same_type"
    ANY_OPEN = "any_open"    # close brackets accept opens of any type
    ANY_CLOSE = "any_close"  # open brackets accept closes of any type


@dataclass(frozen=True, order=True)
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


def _check_spans(spans: Iterable[ChunkSpan], length: int) -> list[ChunkSpan]:
    ordered = sorted(spans)
    prev_end = -1
    for s in ordered:
        if s.end >= length:
            raise DomainError(f"span {s} exceeds sentence length {length}")
        if s.start <= prev_end:
            raise DomainError(f"span {s} overlaps a preceding span")
        prev_end = s.end
    return ordered


def _tag(kind: str, typ: str | None) -> str:
    return kind if typ is None else f"{kind}-{typ}"


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split "B-NP" into ("B", "NP"); bare tags get type None."""
    kind, sep, typ = tag.partition("-")
    return (kind, typ if sep else None)


def encode(
    spans: Iterable[ChunkSpan],
    scheme: Scheme,
    length: int,
    typed: bool = True,
):
    """Tag sequence for a flat span set.  With ``typed`` off, type suffixes are
    dropped (single-chunk-type corpora)."""
    ordered = _check_spans(spans, length)
    if scheme is Scheme.OC:
        opens = encode(ordered, Scheme.O, length, typed)
        closes = encode(ordered, Scheme.C, length, typed)
        return list(zip(opens, closes))

    starts = {s.start: s for s in ordered}
    ends = {s.end: s for s in ordered}
    if scheme is Scheme.O:
        return [
            _tag("(", starts[i].type if typed else None) if i in starts else "."
            for i in range(length)
        ]
    if scheme is Scheme.C:
        return [
            _tag(")", ends[i].type if typed else None) if i in ends else "."
            for i in range(length)
        ]

    tags = ["O"] * length
    prev: ChunkSpan | None = None
    for s in ordered:
        typ = s.type if typed else None
        for i in range(s.start, s.end + 1):
            tags[i] = _tag("I", typ)
        # Only same-type adjacency is ambiguous; a type suffix change already
        # marks the boundary.
        adjacent = (
            prev is not None
            and prev.end + 1 == s.start
            and (not typed or prev.type == s.type)
        )
        if scheme is Scheme.IOB2 or (scheme is Scheme.IOB1 and adjacent):
            tags[s.start] = _tag("B", typ)
        if adjacent and scheme is Scheme.IOE1:
            # E goes on the *previous* chunk's final word
            ptyp = prev.type if typed else None
            tags[prev.end] = _tag("E", ptyp)
        if scheme is Scheme.IOE2:
            tags[s.end] = _tag("E", typ)
        prev = s
    return tags


def _decode_iob(tags: Sequence[str], default_type: str) -> list[ChunkSpan]:
    spans = []
    start = None
    cur_type = default_type
    for i, tag in enumerate(tags):
        kind, typ = split_tag(tag)
        typ = typ or default_type
        if kind == "O":
            if start is not None:
                spans.append(ChunkSpan(start, i - 1, cur_type))
                start = None
        elif kind == "B":
            if start is not None:
                spans.append(ChunkSpan(start, i - 1, cur_type))
            start, cur_type = i, typ
        else:  # I (and anything unknown, permissively)
            if start is None:
                start, cur_type = i, typ
            elif typ != cur_type:
                spans.append(ChunkSpan(start, i - 1, cur_type))
                start, cur_type = i, typ
    if start is not None:
        spans.append(ChunkSpan(start, len(tags) - 1, cur_type))
    return spans


def _decode_ioe(tags: Sequence[str], default_type: str) -> list[ChunkSpan]:
    spans = []
    start = None
    cur_type = default_type
    for i, tag in enumerate(tags):
        kind, typ = split_tag(tag)
        typ = typ or default_type
        if kind == "O":
            if start is not None:
                spans.append(ChunkSpan(start, i - 1, cur_type))
                start = None
        elif kind == "E":
            if start is None:
                spans.append(ChunkSpan(i, i, typ))
            elif typ == cur_type:
                spans.append(ChunkSpan(start, i, cur_type))
                start = None
            else:
                spans.append(ChunkSpan(start, i - 1, cur_type))
                spans.append(ChunkSpan(i, i, typ))
                start = None
        else:  # I
            if start is None:
                start, cur_type = i, typ
            elif typ != cur_type:
                spans.append(ChunkSpan(start, i - 1, cur_type))
                start, cur_type = i, typ
    if start is not None:
        spans.append(ChunkSpan(start, len(tags) - 1, cur_type))
    return spans


def decode(tags: Sequence, scheme: Scheme, default_type: str = "NP") -> list[ChunkSpan]:
    """Span set for a tag sequence; total (permissive) over malformed input.

    ``Scheme.OC`` expects per-token (open tag, close tag) pairs.  A lone O or
    C stream under-determines spans and is rejected; ``mark_type`` reads one
    of its tags.
    """
    if scheme in (Scheme.O, Scheme.C):
        raise DomainError(
            f"{scheme.value} alone does not determine spans; decode O+C pairs"
        )
    if scheme is Scheme.OC:
        opens = [mark_type(o, default_type) for o, _ in tags]
        closes = [mark_type(c, default_type) for _, c in tags]
        return balance_brackets(opens, closes, MatchMode.SAME_TYPE)
    if scheme in (Scheme.IOB1, Scheme.IOB2):
        return _decode_iob(tags, default_type)
    return _decode_ioe(tags, default_type)


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
    spans = decode(tags, src, default_type)
    if src is Scheme.OC:
        typed = any(split_tag(t)[1] for pair in tags for t in pair)
    else:
        typed = any(split_tag(t)[1] for t in tags)
    return encode(spans, dst, len(tags), typed=typed)


def balance_brackets(
    opens: Sequence[str | None],
    closes: Sequence[str | None],
    match_mode: MatchMode = MatchMode.SAME_TYPE,
) -> list[ChunkSpan]:
    """Repair independent open/close mark streams into a flat span set.

    Left-to-right matching: opens push; a close pops the nearest compatible
    open, which also discards any opens pushed before it (a flat structure
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
        if match_mode is MatchMode.SAME_TYPE:
            pick = next(
                (j for j in range(len(stack) - 1, -1, -1) if stack[j][1] == ctyp),
                None,
            )
        else:
            pick = len(stack) - 1 if stack else None
        if pick is None:
            continue
        start, styp = stack[pick]
        typ = ctyp if match_mode is MatchMode.ANY_OPEN else styp
        spans.append(ChunkSpan(start, i, typ))
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
