"""Windowed feature extraction, head-word compression and wrapper selection.

Extraction reads a ``CodedCorpus``, which holds the cells of a corpus's
channels and codes each once; built from a file's cells, it makes ``Token``
objects only for the code that reads them.  A chunk-tag context comes as
tag lists per sentence, or as ``CodedTags`` that are recoded without a
string per token.

A ``View`` is a corpus compressed by chunks to their head words, as index
arrays over the whole corpus: each view token's head row and POS code, and
each row's view token.  ``CodedCorpus.view`` compresses nothing,
``compress_mapped`` compresses every sentence of a view by one batch of
chunks at once, and ``CodedCorpus.compressed`` codes a view's tokens for
extraction from the corpus's own codes.  ``chunk_heads`` finds the heads.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .learner import PAD, FeatureColumns, code_column, code_dtype
from .schemes import ChunkSpan, SpanArrays

# Widest window offset any template may use.
MAX_OFFSET = 4

Atom = tuple[str, int]  # (channel, offset); channels are "w", "p", "c"

_CHANNELS = ("w", "p", "c")


@dataclass(frozen=True, slots=True)
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
    for channel, offs in zip(_CHANNELS, (template.words, template.pos, template.chunks)):
        if not offs:
            continue
        contiguous = len(offs) > 1 and offs[-1] - offs[0] == len(offs) - 1
        body = f"{offs[0]}..{offs[-1]}" if contiguous else ",".join(map(str, offs))
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CodedTags(NamedTuple):
    """Every token's tag, coded: ``classes`` maps each tag to its code, in
    order of first occurrence, and ``codes`` holds each row's code."""

    classes: dict[str, int]
    codes: np.ndarray


def _code_channel(cells) -> tuple[list[str], np.ndarray]:
    """A channel's symbols in code order, PAD first, and the code of each
    cell; ``CodedTags`` are recoded from their classes."""
    if isinstance(cells, CodedTags):
        table, recode = code_column([PAD, *cells.classes])
        return list(table), recode[1:][cells.codes]
    table, codes = code_column([PAD, *cells])
    return list(table), codes[1:]


def _recode(symbols: list[str], stream: np.ndarray, positions, rows):
    """The channel's codes at ``positions``, recoded in order of first
    occurrence down the rows and kept in the ``code_dtype`` of their
    table, and that table."""
    column = stream[positions]
    first = np.full(len(symbols), len(rows))
    np.minimum.at(first, column, rows)
    found = np.flatnonzero(first < len(rows))
    found = found[np.argsort(first[found])]  # in order of first occurrence
    recode = np.empty(len(symbols), dtype=code_dtype(len(found)))
    recode[found] = np.arange(len(found))
    return {symbols[v]: code for code, v in enumerate(found.tolist())}, _read_only(recode[column])


class CodedCorpus(Sequence):
    """A corpus that keeps the codes ``extract`` works out from it.

    It reads as its list of ``Token`` sentences, but holds each channel's
    cells (words, POS tags, the tokens' own chunk tags) token after token,
    and builds the tokens only when they are read.  Each channel is coded
    once, on first use, laid end to end with ``MAX_OFFSET`` PAD cells around
    each sentence; each (channel, offset) column is recoded once too, and
    every later template gets the same code table and read-only array.
    Build one per corpus that several templates read, and let it go with
    that corpus.
    """

    def __init__(self, sentences=None, lengths=None, cells=None, channels=None):
        """Over a list of ``Token`` sentences, over ``cells``, the cells of
        channels "w", "p" and "c" (None: no chunk tags), or over
        ``channels``, the symbols (PAD first) and each row's code of
        channels "w" and "p", in sentences of ``lengths``."""
        self._sentences, self._cells = sentences, cells or {}
        self.lengths = [len(s) for s in sentences] if sentences is not None else list(lengths)
        ends = np.cumsum(self.lengths, dtype=np.intp).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))  # each sentence's rows
        self.rows = _read_only(np.arange(ends[-1] if ends else 0))
        # the cell of row r: every sentence up to r's own adds a run of pad cells
        runs = np.repeat(np.arange(1, len(ends) + 1), np.array(self.lengths, dtype=np.intp))
        self.positions = _read_only(self.rows + MAX_OFFSET * runs)
        self._channels: dict[str, tuple[list[str], np.ndarray]] = {
            c: self._laid_out(*coded) for c, coded in (channels or {}).items()
        }
        self._columns: dict[Atom, tuple[dict[str, int], np.ndarray]] = {}

    @staticmethod
    def of(sentences: Sequence[Sequence[Token]]) -> "CodedCorpus":
        """``sentences`` if it is a coded corpus, else a fresh one over it."""
        return sentences if isinstance(sentences, CodedCorpus) else CodedCorpus(sentences)

    @property
    def sentences(self) -> Sequence[Sequence[Token]]:
        if self._sentences is None:
            chunks = self._cells.get("c") or repeat(None)
            tokens = list(map(Token, self.tags("w"), self.tags("p"), chunks))
            self._sentences = [tokens[a:b] for a, b in self.bounds]
            self._cells = {}  # the tokens hold the cells now
        return self._sentences

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        return self.sentences[index]

    def __iter__(self):  # the sentence list's own, not one index at a time
        return iter(self.sentences)

    def take(self, indices: Sequence[int]) -> "CodedCorpus":
        """A coded corpus of the sentences at ``indices``, from their cells."""
        rows = [r for i in indices for r in range(*self.bounds[i])]
        cells = {c: list(map(self.tags(c).__getitem__, rows)) for c in "wpc"}
        return CodedCorpus(lengths=[self.lengths[i] for i in indices], cells=cells)

    def tags(self, channel: str) -> Sequence:
        """The channel's own cells, token after token; a chunk tag is None
        where a token has none."""
        if channel not in self._cells:
            if self._sentences is None:  # coded channels only, and no chunk tags
                symbols, stream = self._channels.get(channel, ((), None))
                codes = [] if stream is None else stream[self.positions].tolist()
                self._cells[channel] = list(map(symbols.__getitem__, codes)) or None
            else:
                field = {"w": "word", "p": "pos", "c": "chunk_tag"}[channel]
                self._cells[channel] = [getattr(t, field) for s in self.sentences for t in s]
        return self._cells[channel] or [None] * len(self.rows)

    def cells(self, channel: str, context=None) -> Sequence:
        """The cells ``extract`` codes for a channel, PAD for a missing chunk
        tag: its own, or in place of the chunk tags those of ``context``
        (one tag list per sentence)."""
        if context is None and channel != "c":
            return self.tags(channel)
        tags = self.tags("c") if context is None else (c for s in context for c in s)
        return [PAD if c is None else c for c in tags]

    def channel(self, cells) -> tuple[list[str], np.ndarray]:
        """The symbols of a channel's cells and the channel's codes, laid out
        with PAD cells around each sentence."""
        return self._laid_out(*_code_channel(cells))

    def _laid_out(self, symbols, codes: np.ndarray) -> tuple[list[str], np.ndarray]:
        stream = np.zeros(len(self.rows) + MAX_OFFSET * (len(self) + 1), dtype=codes.dtype)
        stream[self.positions] = codes
        return symbols, stream

    def _own(self, channel: str) -> tuple[list[str], np.ndarray]:
        """The symbols and laid-out codes of one of the tokens' own channels."""
        if channel not in self._channels:
            self._channels[channel] = self.channel(self.cells(channel))
        return self._channels[channel]

    def column(self, channel: str, offset: int) -> tuple[dict[str, int], np.ndarray]:
        """The code table and the column of one (channel, offset) feature
        over the tokens' own channels, worked out once."""
        if (channel, offset) not in self._columns:
            self._columns[channel, offset] = _recode(
                *self._own(channel), self.positions + offset, self.rows
            )
        return self._columns[channel, offset]

    def view(self) -> "View":
        """The corpus as a view that compresses nothing."""
        symbols, stream = self._own("p")
        pos = stream[self.positions].astype(np.intp)
        return View(self.rows, pos, tuple(symbols), self.rows, np.array(self.lengths, np.intp))

    def compressed(self, view: "View", sentences: np.ndarray | None = None) -> "CodedCorpus":
        """A coded corpus of the tokens of ``view`` (a view of this corpus),
        of the sentences at ``sentences`` only when given: the words of
        their head rows and their POS tags, coded from these codes without
        a string per token.  Its tokens have no chunk tags."""
        heads, pos, lengths = view.heads, view.pos, view.lengths
        if sentences is not None:
            tokens = ranges((np.cumsum(lengths) - lengths)[sentences], lengths[sentences])
            heads, pos, lengths = heads[tokens], pos[tokens], lengths[sentences]
        words, stream = self._own("w")
        channels = {"w": (words, stream[self.positions[heads]]), "p": (list(view.symbols), pos)}
        return CodedCorpus(lengths=lengths.tolist(), channels=channels)


def extract(
    template: FeatureTemplate,
    corpus: Sequence[Sequence[Token]],
    context: Sequence[Sequence[str | None]] | CodedTags | None = None,
) -> tuple[FeatureColumns, list[tuple[int, int]]]:
    """Feature vectors of every token of every sentence, coded column by
    column, plus each sentence's (start, end) range of rows.

    Row r holds, for token r, the word at each of the template's word
    offsets, then the POS tag at each POS offset, then the chunk tag at each
    chunk offset; PAD where an offset falls outside the sentence or a chunk
    tag is None.  ``context`` (per-sentence chunk tags, or ``CodedTags`` of
    every row) is read in place of the tokens' own chunk tags.
    A feature column is its channel's codes at the token positions shifted
    by its offset, recoded in order of first occurrence.  Every column comes
    from the ``CodedCorpus`` (a plain sentence list is wrapped in a fresh
    one), so the templates applied to one coded corpus share the code
    tables and read-only arrays of the columns they have in common.  Only a
    ``context`` chunk channel is coded anew on every call.
    """
    corpus = CodedCorpus.of(corpus)
    if context is not None:
        coded = isinstance(context, CodedTags)
        if (len(context.codes) != len(corpus.rows)) if coded else (
            [len(c) for c in context] != corpus.lengths
        ):
            raise DomainError("context does not line up with the tokens")
        context = context if coded else corpus.cells("c", context)
    found = []
    offsets_of = (template.words, template.pos, template.chunks)
    for channel, offsets in zip(_CHANNELS, offsets_of):
        if channel == "c" and context is not None and offsets:
            own = corpus.channel(context)
            found += [_recode(*own, corpus.positions + off, corpus.rows) for off in offsets]
        else:
            found += [corpus.column(channel, off) for off in offsets]
    codes = tuple(table for table, _ in found)
    columns = tuple(column for _, column in found)
    return FeatureColumns(codes, columns, len(corpus.rows)), list(corpus.bounds)


# ---------------------------------------------------------------------------
# Head words and views: a corpus compressed by chunks, as index arrays.


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]`` .. ``starts[i] + counts[i] - 1`` of every
    i, end to end."""
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(len(shift)) + shift


def chunk_heads(view: "View", starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The head of each chunk of ``view``, its tokens ``starts[i]`` to
    ``ends[i]``: the last token of its first run of nouns (POS tags that
    start "NN"), or its last token when it holds no noun."""
    nouns = np.array([s.startswith("NN") for s in view.symbols], dtype=bool)[view.pos]
    marked, unmarked = (np.append(np.flatnonzero(f), len(nouns)) for f in (nouns, ~nouns))
    first = marked[np.searchsorted(marked, starts)]
    run_end = unmarked[np.searchsorted(unmarked, first)] - 1
    return np.where(first <= ends, np.minimum(run_end, ends), ends)


class View(NamedTuple):
    """A corpus compressed by chunks, over the rows of the corpus (its
    tokens, sentence after sentence).  View token j has the word of row
    ``heads[j]`` and the POS tag ``symbols[pos[j]]`` (a compressed chunk's
    type); ``orig2cur`` maps each row to the view token that stands for it
    and does not decrease, so ``searchsorted`` finds a token's rows;
    ``lengths`` counts each sentence's view tokens."""

    heads: np.ndarray
    pos: np.ndarray
    symbols: tuple[str, ...]  # PAD first
    orig2cur: np.ndarray
    lengths: np.ndarray


def compress_mapped(view: View, chunks: SpanArrays) -> View:
    """``view`` one level up: each chunk (in rows of the corpus, with no two
    on one view token) compressed to its head word, a noun phrase's noun
    head (``chunk_heads``) and any other chunk's last token, with the chunk
    type as its POS tag.  Raises ``DomainError`` at the first chunk, per
    sentence in sorted view positions, that overlaps the one before it."""
    vs, ve = view.orig2cur[chunks.starts], view.orig2cur[chunks.ends]
    order = np.lexsort((chunks.type_codes, ve, vs, chunks.sentence))
    sentence, vs, ve, types = (a[order] for a in (chunks.sentence, vs, ve, chunks.type_codes))
    overlaps = np.flatnonzero((sentence[1:] == sentence[:-1]) & (vs[1:] <= ve[:-1]))[:1] + 1
    for i in overlaps.tolist():
        first = int(np.sum(view.lengths[: sentence[i]]))
        chunk = ChunkSpan(int(vs[i]) - first, int(ve[i]) - first, chunks.types[types[i]])
        raise DomainError(f"chunk {chunk} overlaps a preceding chunk")
    symbols = view.symbols + tuple(t for t in chunks.types if t not in view.symbols)
    type_pos = np.array([symbols.index(t) for t in chunks.types], dtype=np.intp)[types]
    head = ve.copy()
    np_chunk = types == (chunks.types.index("NP") if "NP" in chunks.types else -1)
    head[np_chunk] = chunk_heads(view, vs[np_chunk], ve[np_chunk])
    # a chunk's tokens after its first join that token
    edges = np.zeros(len(view.heads) + 1, dtype=np.intp)
    edges[vs + 1] += 1
    edges[ve + 1] -= 1
    kept = np.cumsum(edges[:-1]) == 0
    cur2new = np.cumsum(kept) - 1
    heads, pos = view.heads[kept], view.pos[kept]
    heads[cur2new[vs]] = view.heads[head]
    pos[cur2new[vs]] = type_pos
    lengths = view.lengths - np.bincount(sentence, ve - vs, len(view.lengths)).astype(np.intp)
    return View(heads, pos, symbols, cur2new[view.orig2cur], lengths)


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
