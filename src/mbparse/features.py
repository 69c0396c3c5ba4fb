"""Windowed feature extraction, head-word compression and wrapper selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .learner import PAD, FeatureColumns
from .schemes import ChunkSpan

# Widest window offset any template may use.
MAX_OFFSET = 4

Atom = tuple[str, int]  # (channel, offset); channels are "w", "p", "c"

_CHANNELS = ("w", "p", "c")


@dataclass(frozen=True)
class Token:
    """One word position: surface form, POS tag, optional chunk tag."""

    word: str
    pos: str
    chunk_tag: str | None = None

    def __post_init__(self):
        if not self.word:
            raise DomainError("token word must be non-empty")


Sentence = list[Token]


@dataclass(frozen=True)
class FeatureTemplate:
    """Offsets per channel, kept sorted; extraction order is w, p, c.

    The chunk channel never includes the focus (offset 0): the predicted tag
    of the focus token is the output class itself.
    """

    words: tuple[int, ...] = ()
    pos: tuple[int, ...] = ()
    chunks: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("words", "pos", "chunks"):
            offs = tuple(sorted(set(getattr(self, name))))
            object.__setattr__(self, name, offs)
            for off in offs:
                if abs(off) > MAX_OFFSET:
                    raise DomainError(f"offset {off} exceeds bound {MAX_OFFSET}")
        if 0 in self.chunks:
            raise DomainError("chunk channel may not include the focus token")

    @property
    def arity(self) -> int:
        return len(self.words) + len(self.pos) + len(self.chunks)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(
            [("w", o) for o in self.words]
            + [("p", o) for o in self.pos]
            + [("c", o) for o in self.chunks]
        )

    @staticmethod
    def from_atoms(atoms: Iterable[Atom]) -> "FeatureTemplate":
        groups: dict[str, list[int]] = {"w": [], "p": [], "c": []}
        for channel, off in atoms:
            if channel not in groups:
                raise DomainError(f"unknown channel {channel!r}")
            groups[channel].append(off)
        return FeatureTemplate(
            words=tuple(groups["w"]), pos=tuple(groups["p"]), chunks=tuple(groups["c"])
        )


def format_template(template: FeatureTemplate) -> str:
    """Compact string form, e.g. "w[-2..0] p[-4..3] c[-2,-1,1,2]"."""
    parts = []
    for channel, offs in (
        ("w", template.words),
        ("p", template.pos),
        ("c", template.chunks),
    ):
        if not offs:
            continue
        contiguous = len(offs) > 1 and offs[-1] - offs[0] == len(offs) - 1
        body = (
            f"{offs[0]}..{offs[-1]}"
            if contiguous
            else ",".join(str(o) for o in offs)
        )
        parts.append(f"{channel}[{body}]")
    return " ".join(parts)


def parse_template(text: str) -> FeatureTemplate:
    """Inverse of ``format_template``; an empty string is the empty template."""
    groups: dict[str, list[int]] = {"w": [], "p": [], "c": []}
    for part in text.split():
        if len(part) < 3 or part[0] not in _CHANNELS or part[1] != "[" or part[-1] != "]":
            raise DomainError(f"bad template part {part!r}")
        channel, body = part[0], part[2:-1]
        if ".." in body:
            lo_s, _, hi_s = body.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise DomainError(f"bad template range {part!r}") from None
            if hi < lo:
                raise DomainError(f"bad template range {part!r}")
            groups[channel].extend(range(lo, hi + 1))
        else:
            try:
                groups[channel].extend(int(x) for x in body.split(","))
            except ValueError:
                raise DomainError(f"bad template offsets {part!r}") from None
    return FeatureTemplate(
        words=tuple(groups["w"]), pos=tuple(groups["p"]), chunks=tuple(groups["c"])
    )


def _channel_cells(channel: str, sentence: Sequence[Token], context) -> list[str]:
    if channel == "w":
        return [t.word for t in sentence]
    if channel == "p":
        return [t.pos for t in sentence]
    tags = [t.chunk_tag for t in sentence] if context is None else context
    return [PAD if c is None else c for c in tags]


def extract(
    template: FeatureTemplate,
    sentences: Sequence[Sequence[Token]],
    context: Sequence[Sequence[str | None]] | None = None,
) -> tuple[FeatureColumns, list[tuple[int, int]]]:
    """Feature vectors of every token of every sentence, coded column by
    column, plus each sentence's (start, end) range of rows.

    Row r holds, for token r, the word at each of the template's word
    offsets, then the POS tag at each POS offset, then the chunk tag at each
    chunk offset; PAD where an offset falls outside the sentence or a chunk
    tag is None.  ``context`` (per-sentence chunk tags) is read in place of
    the tokens' own chunk tags.
    Each channel is coded once, over all sentences laid end to end with
    ``MAX_OFFSET`` PAD cells around each; a feature column is then the
    channel's codes at the token positions shifted by its offset, recoded in
    order of first occurrence.
    """
    lengths = [len(s) for s in sentences]
    if context is not None and (
        len(context) != len(sentences)
        or any(len(c) != n for c, n in zip(context, lengths))
    ):
        raise DomainError("context does not line up with the tokens")
    rows = np.arange(sum(lengths))
    # the cell of row r: every sentence up to r's own adds a run of pad cells
    runs = np.repeat(np.arange(1, len(lengths) + 1), np.array(lengths, dtype=np.intp))
    positions = rows + MAX_OFFSET * runs
    pad = [PAD] * MAX_OFFSET
    codes = []
    matrix = np.empty((len(rows), template.arity), dtype=np.int32, order="F")
    offsets_of = (template.words, template.pos, template.chunks)
    for channel, offsets in zip(_CHANNELS, offsets_of):
        if not offsets:
            continue
        cells = list(pad)
        for si, s in enumerate(sentences):
            tags = None if context is None else context[si]
            cells.extend(_channel_cells(channel, s, tags))
            cells.extend(pad)
        table = {v: code for code, v in enumerate(dict.fromkeys(cells))}
        symbols = list(table)
        stream = np.fromiter(map(table.__getitem__, cells), np.int32, len(cells))
        for off in offsets:
            column = stream[positions + off]
            first = np.full(len(symbols), len(rows))
            np.minimum.at(first, column, rows)
            found = np.flatnonzero(first < len(rows))
            found = found[np.argsort(first[found])]  # in order of first occurrence
            recode = np.empty(len(symbols), dtype=np.int32)
            recode[found] = np.arange(len(found), dtype=np.int32)
            matrix[:, len(codes)] = recode[column]
            codes.append({symbols[v]: code for code, v in enumerate(found.tolist())})
    ends = np.cumsum(lengths).tolist()
    return FeatureColumns(tuple(codes), matrix), list(zip([0] + ends[:-1], ends))


# ---------------------------------------------------------------------------
# Head words and sentence compression.


def np_head(chunk: Sequence[Token]) -> int:
    """Head position of a noun phrase: the last token of its first run of
    noun tags, or the final token when no noun is present."""
    if not chunk:
        raise DomainError("empty chunk has no head")
    in_run = False
    last = None
    for i, tok in enumerate(chunk):
        if tok.pos.startswith("NN"):
            in_run = True
            last = i
        elif in_run:
            break
    return last if last is not None else len(chunk) - 1


def compress_mapped(
    sentence: Sequence[Token], chunks: Iterable[ChunkSpan]
) -> tuple[list[Token], list[tuple[int, int]]]:
    """Compress chunks to their head words; the head's POS becomes the chunk
    type.  Also returns, per output token, the original (start, end) range it
    stands for."""
    ordered = sorted(chunks)
    prev_end = -1
    for s in ordered:
        if s.end >= len(sentence):
            raise DomainError(f"chunk {s} exceeds sentence length")
        if s.start <= prev_end:
            raise DomainError(f"chunk {s} overlaps a preceding chunk")
        prev_end = s.end

    out: list[Token] = []
    origins: list[tuple[int, int]] = []
    i = 0
    for s in ordered:
        while i < s.start:
            out.append(sentence[i])
            origins.append((i, i))
            i += 1
        chunk = sentence[s.start : s.end + 1]
        # noun phrases keep their noun head, other chunks their final token
        head = chunk[np_head(chunk) if s.type == "NP" else len(chunk) - 1]
        out.append(Token(word=head.word, pos=s.type))
        origins.append((s.start, s.end))
        i = s.end + 1
    while i < len(sentence):
        out.append(sentence[i])
        origins.append((i, i))
        i += 1
    return out, origins


# ---------------------------------------------------------------------------
# Wrapper feature selection: bidirectional hill-climbing with a beam.


@dataclass
class SelectionReport:
    best_set: FeatureTemplate
    best_score: float
    score_history: list[tuple[FeatureTemplate, float]]
    beam_width: int


def select_features(
    candidates: Iterable[Atom],
    evaluate: Callable[[FeatureTemplate], float],
    beam: int = 5,
) -> SelectionReport:
    """Search feature subsets by adding *and* removing one feature at a time,
    keeping the ``beam`` best templates ever evaluated as the frontier.  Stops
    when a full expansion round fails to improve the best score strictly.
    """
    if beam < 1:
        raise DomainError("beam must be >= 1")
    pool = sorted(set(candidates))

    seen: dict[frozenset[Atom], float] = {}
    history: list[tuple[FeatureTemplate, float]] = []

    def score_of(atoms: frozenset[Atom]) -> float:
        if atoms not in seen:
            template = FeatureTemplate.from_atoms(atoms)
            value = evaluate(template)
            seen[atoms] = value
            history.append((template, value))
        return seen[atoms]

    def ranked(sets: Iterable[frozenset[Atom]]):
        # deterministic: score desc, then smaller, then canonical order
        return sorted(sets, key=lambda a: (-seen[a], len(a), sorted(a)))

    empty: frozenset[Atom] = frozenset()
    best_score = score_of(empty)
    best_atoms = empty

    frontier = [empty]
    while True:
        fresh = []
        for atoms in frontier:
            for atom in pool:
                if atom not in atoms:
                    fresh.append(atoms | {atom})
            for atom in sorted(atoms):
                fresh.append(atoms - {atom})
        new_sets = [a for a in dict.fromkeys(fresh) if a not in seen]
        if not new_sets:
            break
        for atoms in new_sets:
            score_of(atoms)
        top = ranked(seen)[0]
        if seen[top] <= best_score:
            break
        best_atoms, best_score = top, seen[top]
        frontier = ranked(seen)[:beam]

    return SelectionReport(
        best_set=FeatureTemplate.from_atoms(best_atoms),
        best_score=best_score,
        score_history=history,
        beam_width=beam,
    )
