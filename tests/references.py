"""Plain references and test fakes shared by the test modules.

Nothing here is collected as a test.  The references are the straightforward
versions that the library's fast paths are compared against; the oracles
replay gold annotations in place of trained components, so pipeline
plumbing can be tested on its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from mbparse.corpus import DEFAULT_COLUMNS, column_index
from mbparse.errors import CorpusError, DomainError
from mbparse.features import CodedCorpus, FeatureTemplate, Token
from mbparse.learner import PAD, Instance, TiePolicy
from mbparse.pipeline import _run_cascade, _wrap_roots, chunk_typed
from mbparse.schemes import (
    ChunkSpan,
    ClauseNode,
    Scheme,
    _nest,
    balance_brackets,
    clause_spans,
    encode,
    mark_type,
    split_tag,
)
from mbparse.synth import np_chunk_corpus

# The four inside/outside representations (every scheme but O, C and O+C).
IO_SCHEMES = (Scheme.IOB1, Scheme.IOB2, Scheme.IOE1, Scheme.IOE2)


def corpus_sections(n_sections: int, sentences_per_section: int, seed: int):
    """Disjoint sections of flat noun-phrase data, for cross-validation work."""
    sections = []
    for i in range(n_sections):
        sections.append(np_chunk_corpus(sentences_per_section, seed + 1000 * i))
    return sections


# ---------------------------------------------------------------------------
# Corpus files and tag schemes, one sentence at a time.


def read_corpus_rows(path, columns: Sequence[str] | None = None):
    """A corpus file as (sentences of row tuples, columns), read line by line."""
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

    sentences: list[list[tuple[str, ...]]] = []
    current: list[tuple[str, ...]] = []
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
            raise CorpusError(f"expected {width} columns, got {len(fields)}", lineno)
        current.append(fields)
    if current:
        sentences.append(current)
    return sentences, columns


def to_tokens(sentence, columns: Sequence[str], with_chunks: bool = True,
              lines: Sequence[int] | None = None, path=None) -> list[Token]:
    """One sentence's rows, on ``lines`` of the file at ``path``, as tokens;
    the chunk column, when asked for and present, gives their chunk tags.  A
    row with a cell read that is the padding symbol is a ``CorpusError``."""
    wi = column_index(columns, "word")
    pi = column_index(columns, "pos")
    ci = list(columns).index("chunk") if "chunk" in columns and with_chunks else None
    tokens = []
    for i, row in enumerate(sentence):
        cells = (row[wi], row[pi]) + ((row[ci],) if ci is not None else ())
        if PAD in cells:
            line = None if lines is None else lines[i]
            raise CorpusError(f"the cell {PAD!r} is reserved for padding", line, path)
        tokens.append(Token(*cells))
    return tokens


def _tag(kind: str, typ: str | None) -> str:
    return kind if typ is None else f"{kind}-{typ}"


def encode_sentence(spans, scheme: Scheme, length: int, typed: bool = True):
    """``schemes.encode``, one span at a time."""
    ordered = sorted(spans)
    prev_end = -1
    for s in ordered:
        if s.end >= length:
            raise DomainError(f"span {s} exceeds sentence length {length}")
        if s.start <= prev_end:
            raise DomainError(f"span {s} overlaps a preceding span")
        prev_end = s.end
    if scheme is Scheme.OC:
        opens = encode_sentence(ordered, Scheme.O, length, typed)
        closes = encode_sentence(ordered, Scheme.C, length, typed)
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
        adjacent = (
            prev is not None
            and prev.end + 1 == s.start
            and (not typed or prev.type == s.type)
        )
        if scheme is Scheme.IOB2 or (scheme is Scheme.IOB1 and adjacent):
            tags[s.start] = _tag("B", typ)
        if adjacent and scheme is Scheme.IOE1:
            tags[prev.end] = _tag("E", prev.type if typed else None)
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


def decode_sentence(tags: Sequence, scheme: Scheme, default_type: str = "NP") -> list[ChunkSpan]:
    """``schemes.decode``, one tag at a time."""
    if scheme in (Scheme.O, Scheme.C):
        raise DomainError(f"{scheme.value} alone does not determine spans; decode O+C pairs")
    if scheme is Scheme.OC:
        opens = [mark_type(o, default_type) for o, _ in tags]
        closes = [mark_type(c, default_type) for _, c in tags]
        return balance_brackets(opens, closes)
    if scheme in (Scheme.IOB1, Scheme.IOB2):
        return _decode_iob(tags, default_type)
    return _decode_ioe(tags, default_type)


def convert_sentence(tags: Sequence, src: Scheme, dst: Scheme, default_type: str = "NP"):
    """``schemes.convert`` through the sentence codecs above."""
    spans = decode_sentence(tags, src, default_type)
    if src is Scheme.OC:
        typed = any(split_tag(t)[1] for pair in tags for t in pair)
    else:
        typed = any(split_tag(t)[1] for t in tags)
    return encode_sentence(spans, dst, len(tags), typed=typed)


_OPEN_RE = re.compile(r"\(([^()*]+)")
_OPENS_RE = re.compile(r"(?:\([^()*]+)*")
_CLOSE_RE = re.compile(r"([^()*]+)\)")


def decode_bracket_column(cells: Sequence[str], lines=None, path=None) -> list[ChunkSpan]:
    """``corpus.decode_brackets`` over one sentence, one cell and one bracket
    at a time, with a stack; raises on unbalanced columns, naming ``path``
    and the line of the offending cell (``lines[i]`` for cell i) when given
    them."""

    def error(message: str, i: int) -> CorpusError:
        return CorpusError(message, None if lines is None else int(lines[i]), path)

    stack: list[tuple[int, str]] = []
    spans: list[ChunkSpan] = []
    for i, cell in enumerate(cells):
        star = cell.find("*")
        if star < 0:
            raise error(f"bracket cell {cell!r} lacks '*'", i)
        if not _OPENS_RE.fullmatch(cell[:star]):
            raise error(f"malformed bracket cell {cell!r}", i)
        for typ in _OPEN_RE.findall(cell[:star]):
            stack.append((i, typ))
        rest = cell[star + 1 :]
        while rest:
            m = _CLOSE_RE.match(rest)
            if not m:
                raise error(f"malformed bracket cell {cell!r}", i)
            typ = m.group(1)
            if not stack or stack[-1][1] != typ:
                raise error(f"unbalanced {typ!r} close in column", i)
            start, _ = stack.pop()
            spans.append(ChunkSpan(start, i, typ))
            rest = rest[m.end() :]
    if stack:
        raise error(f"unclosed {stack[-1][1]!r} bracket in column", stack[-1][0])
    return sorted(spans)


def decode_clause_column(cells: Sequence[str], lines=None, path=None) -> list[ClauseNode]:
    """One sentence's clause column as a clause forest."""
    spans = decode_bracket_column(cells, lines, path)
    return _nest([(s.start, s.end) for s in spans])


# ---------------------------------------------------------------------------
# Learner.


def decoded_rows(columns) -> list[tuple[str, ...]]:
    """The feature tuples of ``FeatureColumns``, decoded row by row."""
    if not columns.codes:
        return [()] * len(columns)
    return list(zip(*(
        map(list(table).__getitem__, column.tolist())
        for table, column in zip(columns.codes, columns.columns)
    )))


def decoded_labels(base) -> list[str]:
    """Each row's class of an ``InstanceBase``, decoded."""
    return list(map(list(base.classes).__getitem__, base.label_codes.tolist()))


def decoded_instances(base) -> list[Instance]:
    """The ``Instance`` rows of an ``InstanceBase``, in their stored order."""
    return list(map(Instance, decoded_rows(base), decoded_labels(base)))


def entropy(counts: Mapping[str, float]) -> float:
    """Shannon entropy in bits of a count distribution."""
    total = 0.0
    for c in counts.values():
        if c < 0:
            raise DomainError(f"negative count {c!r}")
        total += c
    if total <= 0:
        raise DomainError("entropy of an empty distribution is undefined")
    h = 0.0
    for c in counts.values():
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


_DISTANCE_DECIMALS = 9


def preference_order(model) -> list[str]:
    """The model's labels in the order its tie policy prefers them."""
    if model.config.tie_policy is TiePolicy.GLOBAL_CLASS_FREQUENCY:
        return sorted(
            model.class_frequencies, key=lambda c: (-model.class_frequencies[c], c)
        )
    return sorted(model.class_frequencies)


def model_parts(model):
    """What a model holds, in comparable form: each code table's items in
    order, the row count, each code column's dtype, shape, contiguity and
    bytes, the class table's items in order, the label codes' dtype and
    bytes, the weights, config and class frequencies in order."""
    base = model.instances
    return (
        [list(table.items()) for table in base.codes],
        len(base),
        [(c.dtype, c.shape, c.flags.c_contiguous, c.tobytes()) for c in base.columns],
        list(base.classes.items()),
        base.label_codes.dtype,
        base.label_codes.tobytes(),
        model.weight_table,
        model.config,
        list(model.class_frequencies.items()),
    )


def dense_winner_ids(model, queries, block=512):
    """The dense sort-and-rank kernel, with its own index: it adds one float64
    b x n mismatch array per weighted feature, sorts every row and ranks the
    distinct distances.  Yields (labels, nearest distances, vote count
    matrix) per block, the vote columns in ``preference_order``."""
    instances = decoded_instances(model.instances)
    n = len(instances)
    arity = model.arity
    matrix = np.empty((n, arity), dtype=np.int32)
    codes = []
    for i, column in enumerate(zip(*(inst.features for inst in instances))):
        table = {v: code for code, v in enumerate(dict.fromkeys(column))}
        matrix[:, i] = [table[v] for v in column]
        codes.append(table)
    encoded = np.full((len(queries), arity), -1, dtype=np.int32)
    for i, (column, table) in enumerate(zip(zip(*queries), codes)):
        encoded[:, i] = [table.get(v, -1) for v in column]
    pref = preference_order(model)
    label_pos = {c: i for i, c in enumerate(pref)}
    label_ids = np.array([label_pos[inst.label] for inst in instances], dtype=np.int32)
    onehot = np.zeros((n, len(pref)), dtype=np.int32)
    onehot[np.arange(n), label_ids] = 1
    weights = np.asarray(model.weight_table.weights, dtype=np.float64)

    k = model.config.k
    for lo in range(0, encoded.shape[0], block):
        q = encoded[lo : lo + block]
        b = q.shape[0]
        dist = np.zeros((b, n), dtype=np.float64)
        for i in range(arity):
            w = weights[i]
            if w != 0.0:
                dist += w * (q[:, i : i + 1] != matrix[None, :, i])
        rounded = np.round(dist, _DISTANCE_DECIMALS)
        order = np.sort(rounded, axis=1)
        if n > 1:
            ranks = np.zeros((b, n), dtype=np.int64)
            np.cumsum(order[:, 1:] != order[:, :-1], axis=1, out=ranks[:, 1:])
        else:
            ranks = np.zeros((b, 1), dtype=np.int64)
        n_distinct = ranks[:, -1] + 1
        kk = np.minimum(k, n_distinct)
        cutoff = (ranks < kk[:, None]).sum(axis=1)
        threshold = order[np.arange(b), cutoff - 1]
        mask = rounded <= threshold[:, None]
        votes = mask.astype(np.int32) @ onehot
        winners = np.argmax(votes, axis=1)
        yield [pref[w] for w in winners], dist.min(axis=1), votes


def dense_classify(model, query):
    """One query through the dense kernel: its label, the distance to its
    nearest instance, and the nonzero vote count of each label."""
    [(labels, nearest, votes)] = dense_winner_ids(model, [query])
    counts = {c: int(v) for c, v in zip(preference_order(model), votes[0]) if v > 0}
    return labels[0], float(nearest[0]), counts


# ---------------------------------------------------------------------------
# Features.


def extract_token(
    sentence: Sequence[Token], index: int, template: FeatureTemplate
) -> tuple[str, ...]:
    """Feature vector for one focus token; out-of-sentence positions give PAD."""
    if index < 0 or index >= len(sentence):
        raise DomainError(f"index {index} out of range for length {len(sentence)}")
    n = len(sentence)
    values: list[str] = []
    for off in template.words:
        j = index + off
        values.append(sentence[j].word if 0 <= j < n else PAD)
    for off in template.pos:
        j = index + off
        values.append(sentence[j].pos if 0 <= j < n else PAD)
    for off in template.chunks:
        j = index + off
        if 0 <= j < n:
            values.append(sentence[j].chunk_tag if sentence[j].chunk_tag is not None else PAD)
        else:
            values.append(PAD)
    return tuple(values)


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
    """``features.compress_mapped`` over one sentence of tokens: chunks
    compressed to their head words, the head's POS replaced by the chunk
    type.  Also returns, per output token, the original (start, end) range
    it stands for."""
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


def compress_view(view: tuple[Sequence[Token], Sequence[int]], spans: Iterable[ChunkSpan]):
    """A sentence's view ``(tokens, orig2cur)`` one level up: its tokens
    compressed by ``spans`` (in original positions), and the map from
    original positions into the result.  A sentence before any compression
    is the view (its tokens, their range)."""
    tokens, orig2cur = view
    tokens, rel = compress_mapped(
        tokens, [ChunkSpan(orig2cur[s.start], orig2cur[s.end], s.type) for s in spans]
    )
    back = [j for j, (a, b) in enumerate(rel) for _ in range(a, b + 1)]
    return tokens, [back[c] for c in orig2cur]


def stratify_levels(spans: Iterable[ChunkSpan]) -> dict[int, list[ChunkSpan]]:
    """``pipeline.tree_levels`` over one sentence: its distinct spans grouped
    by height, leaves at level 0, a span one above the highest span it
    contains.  Of spans over the same tokens the one of the later type is
    inside, as ``encode_bracket_column`` nests them."""
    inner_first = sorted(set(spans), key=lambda s: s.type, reverse=True)
    spans = sorted(inner_first, key=lambda s: (s.end - s.start, s.start))
    levels: dict[ChunkSpan, int] = {}
    for s in spans:
        inside = [
            levels[t]
            for t in levels
            if t.start >= s.start and t.end <= s.end and t != s
        ]
        levels[s] = 1 + max(inside) if inside else 0
    out: dict[int, list[ChunkSpan]] = {}
    for s, lvl in levels.items():
        out.setdefault(lvl, []).append(s)
    return {lvl: sorted(group) for lvl, group in out.items()}


def level_views(sentence: Sequence[Token], by_level, level: int):
    """A sentence's tokens compressed by all gold structure below ``level``,
    every level from scratch, plus the map from original positions into the
    compressed sentence."""
    tokens = list(sentence)
    orig2cur = list(range(len(sentence)))
    for l in range(level):
        here = by_level.get(l, [])
        cur_spans = [
            ChunkSpan(orig2cur[s.start], orig2cur[s.end], s.type) for s in here
        ]
        tokens, rel = compress_mapped(tokens, cur_spans)
        back = {}
        for j, (a, b) in enumerate(rel):
            for c in range(a, b + 1):
                back[c] = j
        orig2cur = [back[c] for c in orig2cur]
    return tokens, orig2cur


def type_features(sentence: Sequence[Token], spans: Sequence[ChunkSpan]) -> list[tuple]:
    """``pipeline._type_features`` over one sentence: per chunk, the
    previous, own and next chunk's head words and the chunk's POS tags."""
    chunks = [sentence[s.start : s.end + 1] for s in spans]
    heads = [PAD, *(chunk[np_head(chunk)].word for chunk in chunks), PAD]
    return [
        (heads[i], heads[i + 1], "+".join(t.pos for t in chunk), heads[i + 2])
        for i, chunk in enumerate(chunks)
    ]


def corpus_tokens(corpus) -> list[list[Token]]:
    """The sentences of a ``features.CodedCorpus`` as ``Token`` lists,
    decoded from its channels (a chunk tag PAD reads as None); a plain
    sentence list as it is."""
    if not isinstance(corpus, CodedCorpus):
        return corpus
    tokens = list(map(Token, corpus.tags("w"), corpus.tags("p"), corpus.tags("c")))
    return [tokens[a:b] for a, b in corpus.bounds]


def view_sentences(sentences, view):
    """Each sentence of ``view``, a ``features.View`` of ``sentences``, as
    the ``(tokens, orig2cur)`` of ``compress_view``, in the sentence's own
    positions; the tokens carry no chunk tags."""
    sentences = corpus_tokens(sentences)
    rows = [t for s in sentences for t in s]
    out, row, first = [], 0, 0
    for n, m in zip([len(s) for s in sentences], view.lengths.tolist()):
        heads = view.heads[first : first + m].tolist()
        pos = view.pos[first : first + m].tolist()
        tokens = [Token(rows[h].word, view.symbols[p]) for h, p in zip(heads, pos)]
        out.append((tokens, [j - first for j in view.orig2cur[row : row + n].tolist()]))
        row, first = row + n, first + m
    return out


# ---------------------------------------------------------------------------
# Pipeline oracles and per-level parse snapshots.


@dataclass
class OracleStream:
    """Replays gold tags; stands in for a trained stream in plumbing tests."""

    scheme: Scheme
    gold: Sequence[Sequence[ChunkSpan]]
    typed: bool = False

    def tag_corpus(self, sentences) -> list[list[str]]:
        if len(sentences) != len(self.gold):
            raise DomainError("oracle gold not aligned with corpus")
        return [
            encode(spans, self.scheme, len(s), typed=self.typed)
            for s, spans in zip(corpus_tokens(sentences), self.gold)
        ]


@dataclass
class OracleClauseBracketer:
    """Replays gold clause bracket positions (closes keep multiplicity)."""

    forests: Sequence[Sequence[ClauseNode]]

    def predict_opens(self, sentences):
        return [sorted({s for s, _ in clause_spans(f)}) for f in self.forests]

    def predict_closes(self, sentences):
        return [sorted(e for _, e in clause_spans(f)) for f in self.forests]


@dataclass
class OracleBracketLevel:
    """Emits the innermost gold spans representable in the current tokens."""

    gold: Sequence[Iterable[ChunkSpan]]

    def predict(self, corpus, view, sentences):
        out = []
        views = view_sentences(corpus, view)
        for si in sentences.tolist():
            tokens, orig2cur = views[si]
            # the first and the last original position of each view token
            last = len(orig2cur) - 1
            start_at = {p: j for p, j in enumerate(orig2cur) if p == 0 or orig2cur[p - 1] != j}
            end_at = {p: j for p, j in enumerate(orig2cur) if p == last or orig2cur[p + 1] != j}
            current = set(zip(start_at, end_at))
            candidates = []
            for span in self.gold[si]:
                if (span.start, span.end) in current:
                    continue  # already a single token
                if span.start in start_at and span.end in end_at:
                    candidates.append(span)
            innermost = [
                s
                for s in candidates
                if not any(
                    t is not s and t.start >= s.start and t.end <= s.end
                    for t in candidates
                )
            ]
            opens: list[str | None] = [None] * len(tokens)
            closes: list[str | None] = [None] * len(tokens)
            for s in innermost:
                opens[start_at[s.start]] = s.type
                closes[end_at[s.end]] = s.type
            out.append((opens, closes))
        return out


def parse_full_levels(sentences, parser):
    """The cumulative span sets of ``parse_full`` per sentence: the base
    chunks, the spans after each cascade level, then the rooted result."""
    base = chunk_typed(sentences, parser.base)
    snapshots = []
    for j in range(len(parser.levels) + 1):
        spans = _run_cascade(sentences, base, parser.levels[:j], False)
        snapshots.append([sorted(found) for found in spans])
    return snapshots + [_wrap_roots([len(s) for s in sentences], spans)]
