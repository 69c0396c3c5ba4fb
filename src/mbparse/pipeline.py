"""Chunking, clause and parsing cascades built on the k-NN learner.

The two-pass multi-representation chunker follows a fixed recipe: tag each
configured representation twice (the second pass sees the first pass's tags
as context), convert every output to open- and close-bracket streams, vote
the open streams and the close streams separately, and repair the winners
into a span set.  Parsers repeat chunking on head-compressed sentences,
one bracket-predictor pair per nesting level.

Every template model is trained by ``train_tagger`` and applied by
``tag_sentences``, on coded feature columns (``features.extract``).  Every
path that applies several templates to one sentence list (a chunker's
streams and passes, the typed strategies, the clause bracketer's open
taggers, a bracket level's open and close models) builds one
``features.CodedCorpus`` of it and passes that down, so each word, POS and
chunk-tag column is coded once and shared.  Chunker trainers take gold spans
per sentence or as ``schemes.SpanArrays`` and turn them into arrays once;
each stream's gold tags come coded from ``schemes.tag_codes`` and serve as
its labels and as its second pass's context.  Tag time decodes each
representation's output once, with one ``schemes.convert_tags`` of the
whole batch into open and close bracket streams.

A compressed sentence is one view, ``(tokens, orig2cur)``: ``orig2cur`` maps
each original position to the token that stands for it, and does not
decrease, so ``bisect`` finds a token's original range.  The clause
bracketer and the cascades, in training and parsing, compress through
``_compress_view``.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .combine import majority_vote
from .errors import ConfigError, DomainError
from .features import (
    CodedCorpus,
    CodedTags,
    FeatureTemplate,
    Token,
    compress_mapped,
    extract,
    np_head,
    parse_template,
)
from .learner import (
    Instance,
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
    ClauseNode,
    MatchMode,
    Scheme,
    SpanArrays,
    balance_brackets,
    balance_clauses,
    clause_spans,
    convert_tags,
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
    typed: bool = False
    default_type: str = "NP"
    match_mode: MatchMode = MatchMode.SAME_TYPE
    level_template: FeatureTemplate = field(
        default_factory=lambda: parse_template("w[-2..2] p[-2..2]")
    )

    def __post_init__(self):
        if not self.representations:
            raise ConfigError("need at least one representation")
        if len(self.representations) % 2 == 0:
            warnings.warn(  # at the caller of the generated __init__
                "even number of representations; majority voting prefers odd",
                stacklevel=3,
            )


def _streams_for(rep: Scheme) -> tuple[Scheme, ...]:
    return (Scheme.O, Scheme.C) if rep is Scheme.OC else (rep,)


# ---------------------------------------------------------------------------
# Two-pass per-representation taggers.


def tag_sentences(
    model: Model,
    template: FeatureTemplate,
    sentences: Sequence[Sentence],
    context: Sequence[Sequence[str]] | None = None,
) -> list[list[str]]:
    """One label per token, from a single batched classification of all
    sentences.  ``context`` gives per-sentence chunk tags that the template's
    chunk channel reads in place of the tokens' own; raises ``DomainError``
    when it does not line up with the tokens."""
    columns, bounds = extract(template, sentences, context)
    labels = classify_labels(model, columns)
    return [labels[a:b] for a, b in bounds]


def train_tagger(
    template: FeatureTemplate,
    sentences: Sequence[Sentence],
    tags: Sequence[Sequence[str]],
    learner_config: LearnerConfig,
    context: Sequence[Sequence[str]] | None = None,
) -> Model:
    """The training twin of ``tag_sentences``: one instance per token, with
    the features ``tag_sentences`` would extract and that token's entry in
    ``tags`` (per sentence, or ``CodedTags``) as its label.  Raises
    ``DomainError`` when ``tags`` or ``context`` does not line up with the
    tokens.  ``CodedTags`` become read-only, so that the models trained on
    them may share them."""
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
    return train(base, learner_config)


@dataclass
class TwoPassStream:
    """One data representation's tagger: a first pass over words and POS tags
    and an optional second pass that also sees the first pass's output."""

    scheme: Scheme
    pass1_template: FeatureTemplate
    pass1_model: Model
    pass2_template: FeatureTemplate | None = None
    pass2_model: Model | None = None

    def tag_corpus(self, sentences: Sequence[Sentence]) -> list[list[str]]:
        tags = tag_sentences(self.pass1_model, self.pass1_template, sentences)
        if self.pass2_model is None:
            return tags
        return tag_sentences(self.pass2_model, self.pass2_template, sentences, tags)


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
    model1 = train_tagger(pass1_template, corpus, labels, learner_config)
    model2 = None
    if pass2_template is not None and pass2_template.chunks:
        model2 = train_tagger(pass2_template, corpus, labels, learner_config, labels)
    return TwoPassStream(
        scheme=scheme,
        pass1_template=pass1_template,
        pass1_model=model1,
        pass2_template=pass2_template if model2 is not None else None,
        pass2_model=model2,
    )


# ---------------------------------------------------------------------------
# Multi-representation chunking with bracket-stream voting.


@dataclass
class Chunker:
    """Per-stream taggers plus the configuration that combines them."""

    streams: dict[Scheme, object]  # TwoPassStream or anything with tag_corpus
    config: PipelineConfig


def train_chunker(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]] | SpanArrays,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> Chunker:
    """One two-pass stream per scheme the representations need, all trained
    on one coded corpus of ``sentences`` and one array form of ``gold``."""
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    corpus = CodedCorpus.of(sentences)
    gold = SpanArrays.of(gold, corpus.lengths)
    streams: dict[Scheme, object] = {}
    for rep in config.representations:
        for scheme in _streams_for(rep):
            if scheme in streams:
                continue
            streams[scheme] = train_two_pass_stream(
                corpus,
                gold,
                scheme,
                config.pass1_templates[scheme],
                config.pass2_templates.get(scheme),
                learner_config,
                typed=config.typed,
            )
    return Chunker(streams=streams, config=config)


def _brackets(chunker: Chunker, sentences) -> list[tuple[list, list]]:
    """Per representation: (open tags, close tags) per sentence.  Every
    stream the representations need is tagged once, all from one coded
    corpus of ``sentences``; an IOB or IOE stream is decoded once, and both
    bracket streams are written from its spans."""
    cfg = chunker.config
    needed = dict.fromkeys(s for rep in cfg.representations for s in _streams_for(rep))
    for scheme in needed:
        if scheme not in chunker.streams:
            raise ConfigError(f"no model for configured representation {scheme.value}")
    corpus = CodedCorpus.of(sentences)
    tags = {scheme: chunker.streams[scheme].tag_corpus(corpus) for scheme in needed}
    brackets = []
    for rep in cfg.representations:
        if rep is Scheme.OC:
            brackets.append((tags[Scheme.O], tags[Scheme.C]))
            continue
        pairs = convert_tags(tags[rep], rep, Scheme.OC, cfg.default_type)
        brackets.append(([[o for o, _ in s] for s in pairs], [[c for _, c in s] for s in pairs]))
    return brackets


def _balance(cfg: PipelineConfig, opens, closes) -> list[ChunkSpan]:
    return balance_brackets(
        [mark_type(t, cfg.default_type) for t in opens],
        [mark_type(t, cfg.default_type) for t in closes],
        cfg.match_mode,
    )


def _voted_spans(cfg: PipelineConfig, brackets) -> list[list[ChunkSpan]]:
    """Vote the representations' open streams and close streams separately,
    then repair each sentence's winners into a span set."""
    combined = []
    for si in range(len(brackets[0][0])):
        voted_o = [majority_vote(v) for v in zip(*(opens[si] for opens, _ in brackets))]
        voted_c = [majority_vote(v) for v in zip(*(closes[si] for _, closes in brackets))]
        combined.append(_balance(cfg, voted_o, voted_c))
    return combined


def chunk_corpus_detail(chunker: Chunker, sentences: Sequence[Sentence]):
    """Combined spans plus each representation's own spans (for comparison):
    its bracket streams repaired, which gives back the spans of its tags."""
    cfg = chunker.config
    brackets = _brackets(chunker, sentences)
    individual = {
        rep: [_balance(cfg, o, c) for o, c in zip(*streams)]
        for rep, streams in zip(cfg.representations, brackets)
    }
    return _voted_spans(cfg, brackets), individual


def chunk_np(sentences: Sequence[Sentence], chunker: Chunker):
    """Noun-phrase chunk spans per sentence via the five-step voting recipe."""
    return _voted_spans(chunker.config, _brackets(chunker, sentences))


# ---------------------------------------------------------------------------
# Typed chunking: three strategies.


@dataclass
class SinglePhaseChunker:
    chunker: Chunker  # trained on typed tags


@dataclass
class DoublePhaseChunker:
    boundary: Chunker  # untyped
    type_model: Model


@dataclass
class NPhaseChunker:
    per_type: dict[str, Chunker]
    type_order: tuple[str, ...]  # descending training frequency


TypedChunker = SinglePhaseChunker | DoublePhaseChunker | NPhaseChunker


def _type_features(sentence: Sentence, spans: Sequence[ChunkSpan]) -> list[tuple]:
    """Per chunk: the previous, own and next chunk's head words and the
    chunk's POS tags.  Each chunk's head is found once."""
    chunks = [sentence[s.start : s.end + 1] for s in spans]
    heads = [PAD, *(chunk[np_head(chunk)].word for chunk in chunks), PAD]
    return [
        (heads[i], heads[i + 1], "+".join(t.pos for t in chunk), heads[i + 2])
        for i, chunk in enumerate(chunks)
    ]


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
        cfg = replace(config, typed=True)
        return SinglePhaseChunker(train_chunker(sentences, gold, cfg, learner_config))

    if strategy is TypeStrategy.DOUBLE_PHASE:
        cfg = replace(config, typed=False, default_type="CH")
        boundary = train_chunker(sentences, gold, cfg, learner_config)
        type_instances = [
            Instance(features, span.type)
            for s, spans in zip(sentences, gold.lists())
            for features, span in zip(_type_features(s, spans), spans)
        ]
        type_model = train(type_instances, learner_config)
        return DoublePhaseChunker(boundary=boundary, type_model=type_model)

    # N-phase: one boundary chunker per chunk type.
    counts = np.bincount(gold.type_codes, minlength=len(gold.types)).tolist()
    freq = {typ: count for typ, count in zip(gold.types, counts) if count}
    order = tuple(sorted(freq, key=lambda t: (-freq[t], t)))
    per_type: dict[str, Chunker] = {}
    for typ in order:
        cfg = replace(config, typed=False, default_type=typ)
        filtered = gold.where(gold.type_codes == gold.types.index(typ))
        per_type[typ] = train_chunker(sentences, filtered, cfg, learner_config)
    return NPhaseChunker(per_type=per_type, type_order=order)


def chunk_typed(sentences: Sequence[Sentence], chunker: TypedChunker):
    """Typed chunk spans per sentence, per the chunker's strategy."""
    sentences = CodedCorpus.of(sentences)  # every strategy's chunkers read it
    if isinstance(chunker, SinglePhaseChunker):
        return chunk_np(sentences, chunker.chunker)

    if isinstance(chunker, DoublePhaseChunker):
        boundaries = [sorted(spans) for spans in chunk_np(sentences, chunker.boundary)]
        queries = []
        for s, spans in zip(sentences, boundaries):
            queries.extend(_type_features(s, spans))
        labels = classify_labels(chunker.type_model, queries)
        out, pos = [], 0
        for spans in boundaries:
            typed = [
                ChunkSpan(s.start, s.end, labels[pos + i])
                for i, s in enumerate(spans)
            ]
            pos += len(spans)
            out.append(typed)
        return out

    # N-phase: run every per-type chunker, then settle token conflicts in
    # favor of the type more frequent in training.
    found = {typ: chunk_np(sentences, ch) for typ, ch in chunker.per_type.items()}
    out = []
    for si in range(len(sentences)):
        taken: list[ChunkSpan] = []
        for typ in chunker.type_order:
            for span in found[typ][si]:
                if not any(
                    span.start <= t.end and t.start <= span.end for t in taken
                ):
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


def _chunk_views(corpus: CodedCorpus):
    """Each sentence's view compressed by the chunks of its IOB1 tags."""
    tags = corpus.tags("c")
    if None in tags:
        raise DomainError("clause identification requires chunk annotations")
    chunks = decode_tags(tags, corpus.lengths, Scheme.IOB1).lists()
    return [_compress_view((s, range(len(s))), spans) for s, spans in zip(corpus, chunks)]


@dataclass
class ClauseBracketer:
    """Open brackets from a majority of three taggers over the raw tokens;
    close brackets from one tagger over the chunk-compressed sentence."""

    open_models: tuple[Model, ...]
    close_model: Model
    open_templates: tuple[FeatureTemplate, ...] = CLAUSE_OPEN_TEMPLATES
    close_template: FeatureTemplate = CLAUSE_CLOSE_TEMPLATE

    def predict_opens(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        corpus = CodedCorpus.of(sentences)
        per_model = [
            tag_sentences(model, template, corpus)
            for model, template in zip(self.open_models, self.open_templates)
        ]
        return [
            [i for i, votes in enumerate(zip(*per_sentence)) if majority_vote(votes) == "("]
            for per_sentence in zip(*per_model)
        ]

    def predict_closes(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        """The last original position of each view token tagged ")"."""
        views = _chunk_views(CodedCorpus.of(sentences))
        tags = tag_sentences(self.close_model, self.close_template, [t for t, _ in views])
        return [
            [bisect_right(orig2cur, j) - 1 for j, tag in enumerate(stags) if tag == ")"]
            for (_, orig2cur), stags in zip(views, tags)
        ]


def train_clause_bracketer(
    sentences: Sequence[Sentence],
    forests: Sequence[Sequence[ClauseNode]],
    learner_config: LearnerConfig | None = None,
) -> ClauseBracketer:
    learner_config = learner_config or LearnerConfig()

    corpus = CodedCorpus.of(sentences)
    open_sets = [{s for s, _ in clause_spans(f)} for f in forests]
    open_tags = CodedTags(*code_column([  # coded once for the three models
        "(" if i in opens else "." for n, opens in zip(corpus.lengths, open_sets) for i in range(n)
    ]))
    open_models = tuple(
        train_tagger(template, corpus, open_tags, learner_config)
        for template in CLAUSE_OPEN_TEMPLATES
    )

    views = _chunk_views(corpus)
    close_tags = []
    for (tokens, orig2cur), forest in zip(views, forests):
        tags = ["."] * len(tokens)
        for _, end in clause_spans(forest):
            tags[orig2cur[end]] = ")"
        close_tags.append(tags)
    close_model = train_tagger(
        CLAUSE_CLOSE_TEMPLATE, [t for t, _ in views], close_tags, learner_config
    )
    return ClauseBracketer(open_models, close_model)


def identify_clauses(sentences: Sequence[Sentence], bracketer) -> list[list[ClauseNode]]:
    """Predict open/close positions per token, then repair them into forests."""
    opens = bracketer.predict_opens(sentences)
    closes = bracketer.predict_closes(sentences)
    return [
        balance_clauses(o, c, len(s)) for s, o, c in zip(sentences, opens, closes)
    ]


# ---------------------------------------------------------------------------
# Cascaded parsing: repeat compress-and-chunk, one bracket pair per level.


@dataclass
class BracketLevel:
    """Open/close mark predictors for one nesting level; both read the
    feature columns of one coded corpus per batch."""

    template: FeatureTemplate
    open_model: Model
    close_model: Model
    default_type: str = "NP"

    def predict(self, batch):
        """Open and close marks per view of ``batch``, a list of (tokens,
        orig2cur, sentence index)."""
        corpus = CodedCorpus([tokens for tokens, _, _ in batch])
        otags = tag_sentences(self.open_model, self.template, corpus)
        ctags = tag_sentences(self.close_model, self.template, corpus)
        return [
            (
                [mark_type(t, self.default_type) for t in o],
                [mark_type(t, self.default_type) for t in c],
            )
            for o, c in zip(otags, ctags)
        ]


def _run_cascade(
    sentences: Sequence[Sentence],
    base_spans: Sequence[Iterable[ChunkSpan]],
    levels: Sequence,
    match_mode: MatchMode,
    early_stop: bool,
) -> list[set[ChunkSpan]]:
    """Each sentence's span set: its base spans and those each level finds
    over the sentence's view compressed by the spans found last.  With
    ``early_stop``, a sentence leaves the cascade at the first level that
    finds nothing new."""
    views = [(s, range(len(s))) for s in sentences]
    found = [list(spans) for spans in base_spans]  # in original positions
    spans = [set(f) for f in found]
    active = list(range(len(views)))
    for level in levels:
        if not active:
            break
        for i in active:
            views[i] = _compress_view(views[i], found[i])
        marks = level.predict([(*views[i], i) for i in active])
        done = set()
        for i, (omarks, cmarks) in zip(active, marks):
            orig2cur = views[i][1]
            found[i] = {
                ChunkSpan(
                    bisect_left(orig2cur, s.start), bisect_right(orig2cur, s.end) - 1, s.type
                )
                for s in balance_brackets(omarks, cmarks, match_mode)
            }
            if not found[i] <= spans[i]:
                spans[i] |= found[i]
            elif early_stop:
                done.add(i)
        active = [i for i in active if i not in done]
    return spans


@dataclass
class NpParser:
    base: Chunker
    levels: list[BracketLevel]
    match_mode: MatchMode = MatchMode.SAME_TYPE


def parse_np(sentences: Sequence[Sentence], parser: NpParser):
    """Nested noun-phrase span sets found by repeated chunking."""
    base = chunk_np(sentences, parser.base)
    spans = _run_cascade(sentences, base, parser.levels, parser.match_mode, True)
    return [sorted(s) for s in spans]


@dataclass
class FullParser:
    base: TypedChunker
    levels: list[BracketLevel]
    match_mode: MatchMode = MatchMode.SAME_TYPE


def _wrap_roots(sentences: Sequence[Sentence], spans: Sequence[set[ChunkSpan]]):
    """Add an "S" span over each non-empty sentence that lacks one."""
    return [
        sorted(found | {ChunkSpan(0, len(s) - 1, "S")} if s else found)
        for s, found in zip(sentences, spans)
    ]


def parse_full(sentences: Sequence[Sentence], parser: FullParser):
    """Typed parse span sets; every sentence ends up under a clause root."""
    base = chunk_typed(sentences, parser.base)
    spans = _run_cascade(sentences, base, parser.levels, parser.match_mode, False)
    return _wrap_roots(sentences, spans)


# ---------------------------------------------------------------------------
# Level stratification and parser training.


def stratify_levels(spans: Iterable[ChunkSpan]) -> dict[int, list[ChunkSpan]]:
    """Group spans of one sentence by height: leaves at level 0, a span one
    above the highest span it contains."""
    spans = sorted(set(spans), key=lambda s: (s.end - s.start, s.start))
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


def _compress_view(view: tuple[Sequence[Token], Sequence[int]], spans: Iterable[ChunkSpan]):
    """A view one level up: its tokens compressed by ``spans`` (in original
    positions), and the map from original positions into the result.  A
    sentence before any compression is the view (its tokens, their range)."""
    tokens, orig2cur = view
    tokens, rel = compress_mapped(
        tokens, [ChunkSpan(orig2cur[s.start], orig2cur[s.end], s.type) for s in spans]
    )
    back = [j for j, (a, b) in enumerate(rel) for _ in range(a, b + 1)]
    return tokens, [back[c] for c in orig2cur]


def train_bracket_level(
    views: Sequence[tuple[list[Token], list[int]]],
    stratified: Sequence[dict[int, list[ChunkSpan]]],
    level: int,
    template: FeatureTemplate,
    learner_config: LearnerConfig,
    typed: bool,
    default_type: str = "NP",
) -> BracketLevel:
    """Train one level's open/close predictors on brackets of that level only,
    over each sentence's view at that level: compressed by the gold structure
    below it."""
    open_tags, close_tags = [], []
    for (tokens, orig2cur), by_level in zip(views, stratified):
        otags, ctags = ["."] * len(tokens), ["."] * len(tokens)
        for sp in by_level.get(level, []):
            otags[orig2cur[sp.start]] = f"(-{sp.type}" if typed else "("
            ctags[orig2cur[sp.end]] = f")-{sp.type}" if typed else ")"
        open_tags.append(otags)
        close_tags.append(ctags)
    corpus = CodedCorpus([tokens for tokens, _ in views])  # both models' columns
    return BracketLevel(
        template=template,
        open_model=train_tagger(template, corpus, open_tags, learner_config),
        close_model=train_tagger(template, corpus, close_tags, learner_config),
        default_type=default_type,
    )


def _train_levels(sentences, stratified, config, learner_config, count, typed):
    """Bracket levels 1..count at k = ``config.k_parse``, up to the first
    level with no gold spans.  Each level's views are the level below's,
    compressed by one more level of gold spans."""
    level_cfg = replace(learner_config, k=config.k_parse)
    views = [(s, range(len(s))) for s in sentences]
    levels = []
    for level in range(1, count + 1):
        if not any(by_level.get(level) for by_level in stratified):
            break
        views = [
            _compress_view(view, by_level.get(level - 1, []))
            for view, by_level in zip(views, stratified)
        ]
        levels.append(
            train_bracket_level(
                views,
                stratified,
                level,
                config.level_template,
                level_cfg,
                typed=typed,
                default_type=config.default_type,
            )
        )
    return levels


def train_np_parser(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]],
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> NpParser:
    """Base chunker on the lowest noun phrases plus one bracket-predictor pair
    per nesting level, each trained on its own level's brackets only."""
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    stratified = [stratify_levels(g) for g in gold]
    base_gold = [by.get(0, []) for by in stratified]
    base = train_chunker(sentences, base_gold, replace(config, typed=False), learner_config)
    levels = _train_levels(
        sentences, stratified, config, learner_config, config.np_parse_levels, typed=False
    )
    return NpParser(base=base, levels=levels, match_mode=config.match_mode)


def train_full_parser(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]],
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> FullParser:
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    stratified = [stratify_levels(g) for g in gold]
    base_gold = [by.get(0, []) for by in stratified]
    base = train_typed_chunker(
        sentences, base_gold, config.type_strategy, config, learner_config
    )
    levels = _train_levels(
        sentences, stratified, config, learner_config, config.max_parse_levels, typed=True
    )
    return FullParser(base=base, levels=levels, match_mode=config.match_mode)
