"""Chunking, clause and parsing cascades built on the k-NN learner.

The two-pass multi-representation chunker follows a fixed recipe: tag each
configured representation twice (the second pass sees the first pass's tags
as context), read every output's open and close brackets, vote the opens
and the closes separately, and repair the winners into a span set.  Parsers
repeat chunking on head-compressed sentences, one bracket-predictor pair
per nesting level.

Every template model is trained by ``train_tagger`` into a ``Tagger``, the
template and its model side by side, which refuses a model of another arity
and tags on coded feature columns (``features.extract``).  Every
path that applies several templates to one sentence list (a chunker's
streams and passes, the typed strategies, the clause bracketer's open
taggers, a bracket level's open and close taggers) builds one
``features.CodedCorpus`` of it and passes that down, so each word, POS and
chunk-tag column is coded once and shared.  Chunker trainers take gold spans
per sentence or as ``schemes.SpanArrays`` and turn them into arrays once;
each stream's gold tags come coded from ``schemes.tag_codes`` and serve as
its labels and as its second pass's context.  Tag time decodes each IOB
or IOE output once, with one ``schemes.decode_tags`` of the whole batch,
and reads its brackets from the spans' types at their starts and ends.

Compressed sentences are one ``features.View`` of the whole corpus: index
arrays of each view token's head row and POS code, and each row's view
token, which does not decrease, so ``searchsorted`` finds a token's rows.
The clause bracketer's close views, cascade training and cascade parsing
advance every sentence's view with one ``features.compress_mapped`` call
per level.  Gold trees come as ``SpanArrays`` (``corpus.decode_brackets``
reads a bracket column into them), and ``tree_levels`` gives each span its
cascade level, all in numpy; a level's open and close tags come from
``schemes.tag_codes`` over the spans in view positions.  Clauses are "S"
spans per sentence or ``SpanArrays`` as well: the clause bracketer's open
and close labels are untyped O and C tags from ``schemes.tag_codes``, and
``identify_clauses`` returns sorted "S" spans per sentence.
"""

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import features
from .combine import majority_vote
from .errors import ConfigError, DomainError
from .features import (
    CodedCorpus,
    CodedTags,
    FeatureColumns,
    FeatureTemplate,
    Token,
    View,
    chunk_heads,
    extract,
    parse_template,
)
from .learner import (
    InstanceBase,
    LearnerConfig,
    Model,
    PAD,
    classify_labels,
    code_column,
    train,
)
from .schemes import (
    ChunkSpan,
    Scheme,
    SpanArrays,
    balance_brackets,
    balance_clauses,
    decode_tags,
    mark_type,
    tag_codes,
)

Sentence = list[Token]


class TypeStrategy(Enum):
    SINGLE_PHASE = "single_phase"
    DOUBLE_PHASE = "double_phase"
    N_PHASE = "n_phase"


# Best feature sets found per representation and pass for noun phrase work.
DEFAULT_PASS1 = {
    Scheme.IOB1: parse_template("w[-4..0] p[-2..3]"),
    Scheme.IOB2: parse_template("w[-1..0] p[-4..3]"),
    Scheme.IOE1: parse_template("w[0..1] p[-3..3]"),
    Scheme.IOE2: parse_template("w[-3..4] p[-4..4]"),
    Scheme.O: parse_template("w[-2..0] p[-4..3]"),
    Scheme.C: parse_template("w[0..4] p[-4..4]"),
}
DEFAULT_PASS2 = {
    Scheme.IOB1: parse_template("w[-2..0] p[-4..3] c[-2,-1,1,2]"),
    Scheme.IOB2: parse_template("w[-1..0] p[-4..2] c[-1,1,2]"),
    Scheme.IOE1: parse_template("w[0..1] p[-3..3] c[-1,1,2]"),
    Scheme.IOE2: parse_template("w[0..1] p[-1..3] c[-2,-1,1,2]"),
    Scheme.O: parse_template("w[-1,0] p[-4..1] c[-1,2]"),
    Scheme.C: parse_template("w[0..2] p[-4..2] c[-2,-1,1]"),
}


@dataclass(frozen=True)
class PipelineConfig:
    representations: tuple[Scheme, ...] = (Scheme.IOB1, Scheme.IOE2, Scheme.OC)
    pass1_templates: Mapping[Scheme, FeatureTemplate] = field(
        default_factory=lambda: dict(DEFAULT_PASS1)
    )
    pass2_templates: Mapping[Scheme, FeatureTemplate] = field(
        default_factory=lambda: dict(DEFAULT_PASS2)
    )
    type_strategy: TypeStrategy = TypeStrategy.DOUBLE_PHASE
    k_parse: int = 1
    max_parse_levels: int = 19
    np_parse_levels: int = 6
    default_type: str = "NP"
    level_template: FeatureTemplate = field(
        default_factory=lambda: parse_template("w[-2..2] p[-2..2]")
    )

    def __post_init__(self):
        for rep in self.representations:
            _streams_for(rep)
        if len(self.representations) % 2 == 0:
            warnings.warn(  # at the caller of the generated __init__
                "even number of representations; majority voting prefers odd",
                stacklevel=3,
            )


def _streams_for(rep: Scheme) -> tuple[Scheme, ...]:
    if rep in (Scheme.O, Scheme.C):
        raise ConfigError("O or C alone does not determine spans; use O+C")
    return (Scheme.O, Scheme.C) if rep is Scheme.OC else (rep,)


# ---------------------------------------------------------------------------
# Two-pass per-representation taggers.


@dataclass(frozen=True)
class Tagger:
    """A feature template and the model trained on its features."""

    template: FeatureTemplate
    model: Model

    def __post_init__(self):
        if self.template.arity != self.model.arity:
            raise DomainError(f"template arity {self.template.arity} does not match "
                              f"model arity {self.model.arity}")

    def tag(self, sentences: Sequence[Sentence],
            context: Sequence[Sequence[str]] | None = None) -> list[list[str]]:
        """One label per token, from a single batched classification of all
        sentences.  ``context`` gives per-sentence chunk tags that the
        template's chunk channel reads in place of the tokens' own; raises
        ``DomainError`` when it does not line up with the tokens."""
        columns, bounds = extract(self.template, sentences, context)
        labels = classify_labels(self.model, columns)
        return [labels[a:b] for a, b in bounds]


def train_tagger(
    template: FeatureTemplate,
    sentences: Sequence[Sentence],
    tags: Sequence[Sequence[str]],
    learner_config: LearnerConfig,
    context: Sequence[Sequence[str]] | None = None,
) -> Tagger:
    """The training twin of ``Tagger.tag``: one instance per token, with
    the features ``tag`` would extract and that token's entry in ``tags``
    (per sentence, or ``CodedTags``) as its label.  Raises ``DomainError``
    when ``tags`` or ``context`` does not line up with the tokens.
    ``CodedTags`` become read-only, so that the models trained on them may
    share them."""
    sentences = CodedCorpus.of(sentences)
    columns, _ = extract(template, sentences, context)
    coded = isinstance(tags, CodedTags)
    if (len(tags.codes) != len(sentences.rows)) if coded else (
        [len(t) for t in tags] != sentences.lengths
    ):
        raise DomainError("training tags do not line up with the tokens")
    labels = tags if coded else CodedTags(*code_column([label for t in tags for label in t]))
    labels.codes.flags.writeable = False
    base = InstanceBase(columns.codes, columns.columns, columns.rows, *labels)
    return Tagger(template, train(base, learner_config))


@dataclass
class TwoPassStream:
    """One data representation's tagger: a first pass over words and POS tags
    and an optional second pass that also sees the first pass's output."""

    pass1: Tagger
    pass2: Tagger | None = None

    def tag_corpus(self, sentences: Sequence[Sentence]) -> list[list[str]]:
        tags = self.pass1.tag(sentences)
        return tags if self.pass2 is None else self.pass2.tag(sentences, tags)


def train_two_pass_stream(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    scheme: Scheme,
    pass1_template: FeatureTemplate,
    pass2_template: FeatureTemplate | None,
    learner_config: LearnerConfig,
    typed: bool = False,
) -> TwoPassStream:
    """Train both passes, on one coded corpus and one coding of the scheme's
    tags.  Second-pass training rows read the *corpus* tags as context; at
    test time the first pass's predictions take their place."""
    corpus = CodedCorpus.of(sentences)
    spans = SpanArrays.of(gold, corpus.lengths)
    labels = CodedTags(*tag_codes(spans, scheme, typed))
    pass1 = train_tagger(pass1_template, corpus, labels, learner_config)
    pass2 = None
    if pass2_template is not None and pass2_template.chunks:
        pass2 = train_tagger(pass2_template, corpus, labels, learner_config, labels)
    return TwoPassStream(pass1, pass2)


# ---------------------------------------------------------------------------
# Multi-representation chunking with bracket-stream voting.


@dataclass
class Chunker:
    """Per-stream taggers plus the settings that combine them: the
    representations to vote, one stream per scheme they need, and the type
    of an untyped bracket."""

    streams: dict[Scheme, TwoPassStream]
    representations: tuple[Scheme, ...]
    default_type: str = "NP"

    def __post_init__(self):
        if not self.representations:
            raise ConfigError("need at least one representation")
        voted = dict.fromkeys(s for rep in self.representations for s in _streams_for(rep))
        for scheme in [*voted, *self.streams]:
            if scheme not in self.streams:
                raise ConfigError(f"no model for configured representation {scheme.value}")
            if scheme not in voted:
                raise DomainError(f"stream {scheme.value} is not voted")


def train_chunker(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
    typed: bool = False,
) -> Chunker:
    """One two-pass stream per scheme the representations need, all trained
    on one coded corpus of ``sentences`` and one array form of ``gold``."""
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    corpus = CodedCorpus.of(sentences)
    gold = SpanArrays.of(gold, corpus.lengths)
    schemes = dict.fromkeys(s for rep in config.representations for s in _streams_for(rep))
    streams = {
        scheme: train_two_pass_stream(corpus, gold, scheme, config.pass1_templates[scheme],
                                      config.pass2_templates.get(scheme), learner_config, typed)
        for scheme in schemes
    }
    return Chunker(streams, config.representations, config.default_type)


def _marks(tags: Sequence[str], default_type: str) -> list[str | None]:
    return [mark_type(t, default_type) for t in tags]


def _brackets(chunker: Chunker, corpus: CodedCorpus) -> list[tuple[list, list]]:
    """Per representation: every row's open mark and close mark, a chunk
    type or None.  Every stream the representations need is tagged once;
    an IOB or IOE stream is decoded once, and its marks are the types of
    its spans at their starts and ends."""
    reps, typ = chunker.representations, chunker.default_type
    tags = {scheme: [t for s in stream.tag_corpus(corpus) for t in s]
            for scheme, stream in chunker.streams.items()}
    brackets = []
    for rep in reps:
        if rep is Scheme.OC:
            brackets.append((_marks(tags[Scheme.O], typ), _marks(tags[Scheme.C], typ)))
            continue
        spans = decode_tags(tags[rep], corpus.lengths, rep, typ)
        opens, closes = [None] * len(tags[rep]), [None] * len(tags[rep])
        for a, b, t in zip(*(c.tolist() for c in (spans.starts, spans.ends, spans.type_codes))):
            opens[a] = closes[b] = spans.types[t]
        brackets.append((opens, closes))
    return brackets


def _repaired(lengths: Sequence[int], opens, closes) -> list[list[ChunkSpan]]:
    """``balance_brackets`` of each sentence's rows of the marks."""
    ends = np.cumsum(lengths, dtype=np.intp).tolist()
    return [balance_brackets(opens[a:b], closes[a:b]) for a, b in zip([0] + ends, ends)]


def _voted(brackets) -> tuple[list, list]:
    """Every row's majority open mark and majority close mark."""
    return tuple([majority_vote(v) for v in zip(*side)] for side in zip(*brackets))


def chunk_corpus_detail(chunker: Chunker, sentences: Sequence[Sentence]):
    """Combined spans plus each representation's own spans (for comparison):
    the repair of its marks, which gives back the spans of its tags."""
    corpus = CodedCorpus.of(sentences)
    brackets = _brackets(chunker, corpus)
    reps, lengths = chunker.representations, corpus.lengths
    individual = {rep: _repaired(lengths, *marks) for rep, marks in zip(reps, brackets)}
    return _repaired(lengths, *_voted(brackets)), individual


def chunk_np(sentences: Sequence[Sentence], chunker: Chunker):
    """Noun-phrase chunk spans per sentence via the five-step voting recipe."""
    corpus = CodedCorpus.of(sentences)
    return _repaired(corpus.lengths, *_voted(_brackets(chunker, corpus)))


# ---------------------------------------------------------------------------
# Typed chunking: three strategies.


@dataclass
class DoublePhaseChunker:
    boundary: Chunker  # untyped
    type_model: Model  # reads the 4 columns of _type_features

    def __post_init__(self):
        if self.type_model.arity != 4:
            raise DomainError(f"type model arity {self.type_model.arity} does not match "
                              "the 4 type features")


@dataclass
class NPhaseChunker:
    chunkers: list[Chunker]  # one per default_type, most frequent first: it wins


TypedChunker = Chunker | DoublePhaseChunker | NPhaseChunker  # single-phase: a Chunker


def _type_features(corpus: CodedCorpus, chunks: SpanArrays) -> FeatureColumns:
    """Per chunk: the previous, own and next chunk's head words (PAD past
    the sentence) and the chunk's POS tags joined by "+", coded column by
    column.  Heads come from ``features.chunk_heads`` over every chunk."""
    words, pos = corpus.tags("w"), corpus.tags("p")
    heads = chunk_heads(corpus.view(), chunks.starts, chunks.ends).tolist()
    heads = np.array(list(map(words.__getitem__, heads)), dtype=object)
    same = chunks.sentence[1:] == chunks.sentence[:-1]
    before, after = np.full(len(heads), PAD, dtype=object), np.full(len(heads), PAD, dtype=object)
    before[1:][same], after[:-1][same] = heads[:-1][same], heads[1:][same]
    tags = ["+".join(pos[a : b + 1]) for a, b in zip(chunks.starts.tolist(), chunks.ends.tolist())]
    coded = [code_column(c) for c in (before.tolist(), heads.tolist(), tags, after.tolist())]
    return FeatureColumns(tuple(t for t, _ in coded), tuple(c for _, c in coded), len(tags))


def train_typed_chunker(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    strategy: TypeStrategy,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> TypedChunker:
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    sentences = CodedCorpus.of(sentences)  # every strategy's chunkers read it
    gold = SpanArrays.of(gold, sentences.lengths)

    if strategy is TypeStrategy.SINGLE_PHASE:
        return train_chunker(sentences, gold, config, learner_config, True)

    if strategy is TypeStrategy.DOUBLE_PHASE:
        cfg = replace(config, default_type="CH")
        boundary = train_chunker(sentences, gold, cfg, learner_config)
        columns = _type_features(sentences, gold)
        labels = code_column([gold.types[t] for t in gold.type_codes.tolist()])
        base = InstanceBase(columns.codes, columns.columns, columns.rows, *labels)
        type_model = train(base, learner_config)
        return DoublePhaseChunker(boundary=boundary, type_model=type_model)

    # N-phase: one boundary chunker per chunk type.
    counts = np.bincount(gold.type_codes, minlength=len(gold.types)).tolist()
    freq = {typ: count for typ, count in zip(gold.types, counts) if count}
    return NPhaseChunker([
        train_chunker(sentences, gold.where(gold.type_codes == gold.types.index(typ)),
                      replace(config, default_type=typ), learner_config)
        for typ in sorted(freq, key=lambda t: (-freq[t], t))
    ])


def chunk_typed(sentences: Sequence[Sentence], chunker: TypedChunker):
    """Typed chunk spans per sentence, per the chunker's strategy."""
    sentences = CodedCorpus.of(sentences)  # every strategy's chunkers read it
    if isinstance(chunker, Chunker):  # single-phase
        return chunk_np(sentences, chunker)

    if isinstance(chunker, DoublePhaseChunker):
        boundaries = SpanArrays.of(chunk_np(sentences, chunker.boundary), sentences.lengths)
        labels = classify_labels(chunker.type_model, _type_features(sentences, boundaries))
        types = tuple(sorted(set(labels)))
        code = dict(zip(types, range(len(types))))
        codes = np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))
        return replace(boundaries, type_codes=codes, types=types).lists()

    # N-phase: run every per-type chunker, then settle token conflicts in
    # favor of the chunker first in ``chunkers``, the more frequent in training.
    found = [chunk_np(sentences, ch) for ch in chunker.chunkers]
    out = []
    for si in range(len(sentences)):
        taken: list[ChunkSpan] = []
        for spans in found:
            for span in spans[si]:
                if not any(span.start <= t.end and t.start <= span.end for t in taken):
                    taken.append(span)
        out.append(sorted(taken))
    return out


# ---------------------------------------------------------------------------
# Clause identification.


# three information-pair learners, context one
CLAUSE_OPEN_TEMPLATES = (
    parse_template("w[-1..1] p[-1..1]"),
    parse_template("w[-1..1] c[-1,1]"),
    parse_template("p[-1..1] c[-1,1]"),
)
CLAUSE_CLOSE_TEMPLATE = parse_template("w[-3..3] p[-3..3]")


def _chunk_view(corpus: CodedCorpus) -> View:
    """The corpus's view compressed by the chunks of its IOB1 tags."""
    tags = corpus.tags("c")
    if None in tags:
        raise DomainError("clause identification requires chunk annotations")
    chunks = decode_tags(tags, corpus.lengths, Scheme.IOB1)
    return features.compress_mapped(corpus.view(), chunks)


@dataclass
class ClauseBracketer:
    """Open brackets from a majority of three taggers over the raw tokens;
    close brackets from one tagger over the chunk-compressed sentence."""

    opens: tuple[Tagger, ...]
    close: Tagger

    def __post_init__(self):
        if len(self.opens) != 3:
            raise DomainError(f"{len(self.opens)} open taggers; the open vote takes 3")

    def predict_opens(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        corpus = CodedCorpus.of(sentences)
        return [
            [i for i, votes in enumerate(zip(*per_sentence)) if majority_vote(votes) == "("]
            for per_sentence in zip(*(tagger.tag(corpus) for tagger in self.opens))
        ]

    def predict_closes(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        """The last original position of each view token tagged ")"."""
        corpus = CodedCorpus.of(sentences)
        view = _chunk_view(corpus)
        tags = self.close.tag(corpus.compressed(view))
        labels = np.array([t for sentence in tags for t in sentence], dtype=object)
        rows = np.searchsorted(view.orig2cur, np.flatnonzero(labels == ")"), side="right") - 1
        ends = np.cumsum(corpus.lengths, dtype=np.intp)
        bounds = np.searchsorted(rows, np.concatenate(([0], ends))).tolist()
        rows -= np.concatenate(([0], ends))[np.searchsorted(ends, rows, side="right")]
        return [rows[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def train_clause_bracketer(
    sentences: Sequence[Sentence],
    clauses: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    learner_config: LearnerConfig | None = None,
) -> ClauseBracketer:
    """Open taggers on the rows where clauses start, and a close tagger on
    the view tokens where they end, of the clauses (``ChunkSpan``s per
    sentence or ``SpanArrays``)."""
    learner_config = learner_config or LearnerConfig()
    corpus = CodedCorpus.of(sentences)
    clauses = SpanArrays.of(clauses, corpus.lengths, nested=True)
    open_tags = CodedTags(*tag_codes(clauses, Scheme.O, typed=False))  # for all three
    opens = tuple(
        train_tagger(template, corpus, open_tags, learner_config)
        for template in CLAUSE_OPEN_TEMPLATES
    )
    view = _chunk_view(corpus)
    at = replace(clauses, lengths=view.lengths, starts=view.orig2cur[clauses.starts],
                 ends=view.orig2cur[clauses.ends])
    close_tags = CodedTags(*tag_codes(at, Scheme.C, typed=False))
    close = train_tagger(CLAUSE_CLOSE_TEMPLATE, corpus.compressed(view), close_tags,
                         learner_config)
    return ClauseBracketer(opens, close)


def identify_clauses(sentences: Sequence[Sentence], bracketer) -> list[list[ChunkSpan]]:
    """Predict open/close positions per token, then repair them into sorted
    "S" spans per sentence."""
    corpus = CodedCorpus.of(sentences)
    opens = bracketer.predict_opens(corpus)
    closes = bracketer.predict_closes(corpus)
    return [balance_clauses(o, c, n) for n, o, c in zip(corpus.lengths, opens, closes)]


# ---------------------------------------------------------------------------
# Cascaded parsing: repeat compress-and-chunk, one bracket pair per level.


@dataclass
class BracketLevel:
    """Open/close mark taggers for one nesting level, which read one coded
    corpus per batch."""

    open: Tagger
    close: Tagger
    default_type: str = "NP"

    def predict(self, corpus: CodedCorpus, view: View, sentences: np.ndarray):
        """Open and close marks of the view tokens of each sentence at
        ``sentences``, indices into ``corpus`` and ``view``."""
        tokens = corpus.compressed(view).take(sentences)
        otags, ctags = self.open.tag(tokens), self.close.tag(tokens)
        return [tuple(_marks(t, self.default_type) for t in pair) for pair in zip(otags, ctags)]


def _run_cascade(
    sentences: Sequence[Sentence],
    base_spans: Sequence[Iterable[ChunkSpan]],
    levels: Sequence,
    early_stop: bool,
) -> list[set[ChunkSpan]]:
    """Each sentence's span set: its base spans and those each level finds
    over the sentence's view compressed by the spans found last.  With
    ``early_stop``, a sentence leaves the cascade at the first level that
    finds nothing new."""
    corpus = CodedCorpus.of(sentences)
    view = corpus.view()
    found = SpanArrays.of(base_spans, corpus.lengths)  # in rows of the corpus
    spans = [set(f) for f in found.lists()]
    active = np.arange(len(corpus))
    for level in levels:
        if not len(active):
            break
        view = features.compress_mapped(view, found)
        marks = level.predict(corpus, view, active)
        # the spans in the active sentences' view tokens, then in the rows
        # those tokens stand for
        local = SpanArrays.of([balance_brackets(o, c) for o, c in marks],
                              view.lengths[active])
        sentence = active[local.sentence]
        shift = np.cumsum(view.lengths)[sentence] - np.cumsum(local.lengths)[local.sentence]
        found = replace(local, lengths=found.lengths, sentence=sentence,
                        starts=np.searchsorted(view.orig2cur, local.starts + shift),
                        ends=np.searchsorted(view.orig2cur, local.ends + shift, "right") - 1)
        new = found.lists()
        stay = np.ones(len(active), dtype=bool)
        for j, i in enumerate(active.tolist()):
            if not spans[i].issuperset(new[i]):
                spans[i].update(new[i])
            elif early_stop:
                stay[j] = False
        active = active[stay]
        found = found.where(np.isin(found.sentence, active))
    return spans


@dataclass
class NpParser:
    base: Chunker
    levels: list[BracketLevel]


def parse_np(sentences: Sequence[Sentence], parser: NpParser):
    """Nested noun-phrase span sets found by repeated chunking."""
    base = chunk_np(sentences, parser.base)
    spans = _run_cascade(sentences, base, parser.levels, True)
    return [sorted(s) for s in spans]


@dataclass
class FullParser:
    base: TypedChunker
    levels: list[BracketLevel]


def _wrap_roots(lengths: Sequence[int], spans: Sequence[set[ChunkSpan]]):
    """Add an "S" span over each non-empty sentence, of ``lengths``, that
    lacks one."""
    return [
        sorted(found | {ChunkSpan(0, n - 1, "S")} if n else found)
        for n, found in zip(lengths, spans)
    ]


def parse_full(sentences: Sequence[Sentence], parser: FullParser):
    """Typed parse span sets; every sentence ends up under a clause root."""
    sentences = CodedCorpus.of(sentences)
    base = chunk_typed(sentences, parser.base)
    spans = _run_cascade(sentences, base, parser.levels, False)
    return _wrap_roots(sentences.lengths, spans)


# ---------------------------------------------------------------------------
# Level stratification and parser training.


def tree_levels(tree: SpanArrays) -> tuple[SpanArrays, np.ndarray]:
    """The distinct spans of a corpus's trees, and each one's level: 0 for
    a span that contains no other, else one more than the highest level of
    the spans it contains.  Of spans over the same tokens, the one of the
    later type is inside, as ``corpus.encode_bracket_column`` nests them.
    Raises ``DomainError`` at a span that crosses one before it.

    In preorder (by start, outer first), a span's depth is its index less
    the spans that end before it starts, its parent is the last span before
    it one level shallower, and a level rises from the deepest spans up."""
    order = np.lexsort((tree.type_codes, -tree.ends, tree.starts))
    columns = [a[order] for a in (tree.sentence, tree.starts, tree.ends, tree.type_codes)]
    distinct = np.ones(len(order), dtype=bool)
    distinct[1:] = np.any([a[1:] != a[:-1] for a in columns[1:]], axis=0)
    sentence, starts, ends, types = (a[distinct] for a in columns)
    n = len(starts)
    depth = np.arange(n) - np.searchsorted(np.sort(ends), starts)
    key = depth * n + np.arange(n)
    by_key = np.argsort(key)
    parent = by_key[np.maximum(np.searchsorted(key[by_key], key - n) - 1, 0)]
    crossed = np.flatnonzero((depth > 0) & (ends[parent] < ends))[:1]
    for i in crossed.tolist():
        first = int(np.sum(tree.lengths[: sentence[i]]))
        span = ChunkSpan(int(starts[i]) - first, int(ends[i]) - first, tree.types[types[i]])
        raise DomainError(f"span {span} crosses a span before it")
    level = np.zeros(n, dtype=np.intp)
    for d in range(int(depth.max(initial=0)), 0, -1):
        inner = np.flatnonzero(depth == d)
        np.maximum.at(level, parent[inner], level[inner] + 1)
    order = np.lexsort((types, ends, starts))
    kept = (a[order] for a in (sentence, starts, ends, types))
    return SpanArrays(tree.lengths, *kept, tree.types), level[order]


def train_bracket_level(
    corpus: CodedCorpus,
    view: View,
    spans: SpanArrays,
    template: FeatureTemplate,
    learner_config: LearnerConfig,
    typed: bool,
    default_type: str = "NP",
) -> BracketLevel:
    """Train one level's open/close predictors on brackets of that level
    only, ``spans`` (in rows of the corpus), over ``view``: the corpus
    compressed by the gold structure below that level."""
    at = replace(spans, lengths=view.lengths, starts=view.orig2cur[spans.starts],
                 ends=view.orig2cur[spans.ends])
    tokens = corpus.compressed(view)  # both taggers' columns
    return BracketLevel(*(
        train_tagger(template, tokens, CodedTags(*tag_codes(at, s, typed)), learner_config)
        for s in (Scheme.O, Scheme.C)
    ), default_type)


def _train_levels(corpus, tree, levels, config, learner_config, count, typed):
    """Bracket levels 1..count at k = ``config.k_parse``, up to the first
    level with no gold spans.  Each level's view is the level below's,
    compressed by one more level of the gold spans ``tree``, whose levels
    ``levels`` holds."""
    level_cfg = replace(learner_config, k=config.k_parse)
    view = corpus.view()
    out = []
    for level in range(1, count + 1):
        if not np.any(levels == level):
            break
        view = features.compress_mapped(view, tree.where(levels == level - 1))
        spans = tree.where(levels == level)
        out.append(train_bracket_level(
            corpus, view, spans, config.level_template, level_cfg, typed, config.default_type
        ))
    return out


def train_np_parser(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> NpParser:
    """Base chunker on the lowest noun phrases plus one bracket-predictor pair
    per nesting level, each trained on its own level's brackets only."""
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    corpus = CodedCorpus.of(sentences)
    tree, level = tree_levels(SpanArrays.of(gold, corpus.lengths, nested=True))
    base_gold = tree.where(level == 0)
    base = train_chunker(corpus, base_gold, config, learner_config)
    levels = _train_levels(
        corpus, tree, level, config, learner_config, config.np_parse_levels, typed=False
    )
    return NpParser(base=base, levels=levels)


def train_full_parser(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> FullParser:
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    corpus = CodedCorpus.of(sentences)
    tree, level = tree_levels(SpanArrays.of(gold, corpus.lengths, nested=True))
    base_gold = tree.where(level == 0)
    base = train_typed_chunker(corpus, base_gold, config.type_strategy, config, learner_config)
    levels = _train_levels(
        corpus, tree, level, config, learner_config, config.max_parse_levels, typed=True
    )
    return FullParser(base=base, levels=levels)
