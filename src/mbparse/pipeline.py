"""Chunking, clause and parsing cascades built on the k-NN learner.

The two-pass multi-representation chunker follows a fixed recipe: tag each
configured representation twice (the second pass sees the first pass's tags
as context), convert every output to open- and close-bracket streams, vote
the open streams and the close streams separately, and repair the winners
into a span set.  Parsers repeat chunking on head-compressed sentences,
one bracket-predictor pair per nesting level.

Every template model is trained and applied on the same coded feature
columns (``features.extract``): ``train_tagger`` labels them and
hands them to the learner as its instance base, ``tag_sentences`` classifies
them in one batch, and a bracket level's open and close models share one
extraction, in training and in prediction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .combine import majority_vote
from .errors import ConfigError, DomainError
from .features import (
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
    train,
)
from .schemes import (
    ChunkSpan,
    ClauseNode,
    MatchMode,
    Scheme,
    balance_brackets,
    balance_clauses,
    clause_spans,
    convert,
    decode,
    encode,
    mark_type,
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
            warnings.warn(
                "even number of representations; majority voting prefers odd",
                stacklevel=2,
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


def _train_rows(columns, bounds, tags, learner_config) -> Model:
    """Train on the coded feature rows, each labelled with the matching entry
    of ``tags`` (one tag list per (start, end) range in ``bounds``)."""
    if len(tags) != len(bounds) or any(
        len(t) != b - a for t, (a, b) in zip(tags, bounds)
    ):
        raise DomainError("training tags do not line up with the tokens")
    labels = tuple(label for t in tags for label in t)
    return train(InstanceBase(columns.codes, columns.matrix, labels), learner_config)


def train_tagger(
    template: FeatureTemplate,
    sentences: Sequence[Sentence],
    tags: Sequence[Sequence[str]],
    learner_config: LearnerConfig,
    context: Sequence[Sequence[str]] | None = None,
) -> Model:
    """The training twin of ``tag_sentences``: one instance per token, with
    the features ``tag_sentences`` would extract and that token's entry in
    ``tags`` as its label.  Raises ``DomainError`` when ``tags`` or
    ``context`` does not line up with the tokens."""
    columns, bounds = extract(template, sentences, context)
    return _train_rows(columns, bounds, tags, learner_config)


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
    gold: Sequence[Iterable[ChunkSpan]],
    scheme: Scheme,
    pass1_template: FeatureTemplate,
    pass2_template: FeatureTemplate | None,
    learner_config: LearnerConfig,
    typed: bool = False,
) -> TwoPassStream:
    """Train both passes.  Second-pass training rows read the *corpus* tags as
    context; at test time the first pass's predictions take their place."""
    gold_tags = [
        encode(spans, scheme, len(s), typed=typed) for s, spans in zip(sentences, gold)
    ]
    model1 = train_tagger(pass1_template, sentences, gold_tags, learner_config)
    model2 = None
    if pass2_template is not None and pass2_template.chunks:
        model2 = train_tagger(
            pass2_template, sentences, gold_tags, learner_config, context=gold_tags
        )
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
    gold: Sequence[Iterable[ChunkSpan]],
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> Chunker:
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    streams: dict[Scheme, object] = {}
    for rep in config.representations:
        for scheme in _streams_for(rep):
            if scheme in streams:
                continue
            streams[scheme] = train_two_pass_stream(
                sentences,
                gold,
                scheme,
                config.pass1_templates[scheme],
                config.pass2_templates.get(scheme),
                learner_config,
                typed=config.typed,
            )
    return Chunker(streams=streams, config=config)


def _tag_streams(chunker: Chunker, sentences) -> dict[Scheme, list[list[str]]]:
    """Tags per sentence of every stream the representations need, each
    stream tagged once."""
    cfg = chunker.config
    needed = dict.fromkeys(s for rep in cfg.representations for s in _streams_for(rep))
    for scheme in needed:
        if scheme not in chunker.streams:
            raise ConfigError(f"no model for configured representation {scheme.value}")
    return {scheme: chunker.streams[scheme].tag_corpus(sentences) for scheme in needed}


def _balance(cfg: PipelineConfig, opens, closes) -> list[ChunkSpan]:
    return balance_brackets(
        [mark_type(t, cfg.default_type) for t in opens],
        [mark_type(t, cfg.default_type) for t in closes],
        cfg.match_mode,
    )


def _voted_spans(cfg: PipelineConfig, tags) -> list[list[ChunkSpan]]:
    """Vote the representations' open streams and close streams separately,
    then repair each sentence's winners into a span set."""
    brackets = []  # per representation: (open tags, close tags) per sentence
    for rep in cfg.representations:
        if rep is Scheme.OC:
            brackets.append((tags[Scheme.O], tags[Scheme.C]))
            continue
        brackets.append((
            [convert(t, rep, Scheme.O, cfg.default_type) for t in tags[rep]],
            [convert(t, rep, Scheme.C, cfg.default_type) for t in tags[rep]],
        ))
    combined = []
    for si in range(len(brackets[0][0])):
        voted_o = [majority_vote(v) for v in zip(*(opens[si] for opens, _ in brackets))]
        voted_c = [majority_vote(v) for v in zip(*(closes[si] for _, closes in brackets))]
        combined.append(_balance(cfg, voted_o, voted_c))
    return combined


def chunk_corpus_detail(chunker: Chunker, sentences: Sequence[Sentence]):
    """Combined spans plus each representation's own spans (for comparison)."""
    cfg = chunker.config
    tags = _tag_streams(chunker, sentences)
    individual = {}
    for rep in cfg.representations:
        if rep is Scheme.OC:
            individual[rep] = [
                _balance(cfg, o, c) for o, c in zip(tags[Scheme.O], tags[Scheme.C])
            ]
        else:
            individual[rep] = [decode(t, rep, cfg.default_type) for t in tags[rep]]
    return _voted_spans(cfg, tags), individual


def chunk_np(sentences: Sequence[Sentence], chunker: Chunker):
    """Noun-phrase chunk spans per sentence via the five-step voting recipe."""
    return _voted_spans(chunker.config, _tag_streams(chunker, sentences))


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


def _type_features(sentence: Sentence, spans: list[ChunkSpan], idx: int):
    span = spans[idx]
    chunk = sentence[span.start : span.end + 1]
    head = chunk[np_head(chunk)].word
    pos_seq = "+".join(t.pos for t in chunk)
    prev_head = PAD
    if idx > 0:
        p = spans[idx - 1]
        prev_chunk = sentence[p.start : p.end + 1]
        prev_head = prev_chunk[np_head(prev_chunk)].word
    next_head = PAD
    if idx + 1 < len(spans):
        nx = spans[idx + 1]
        next_chunk = sentence[nx.start : nx.end + 1]
        next_head = next_chunk[np_head(next_chunk)].word
    return (prev_head, head, pos_seq, next_head)


def train_typed_chunker(
    sentences: Sequence[Sentence],
    gold: Sequence[Iterable[ChunkSpan]],
    strategy: TypeStrategy,
    config: PipelineConfig | None = None,
    learner_config: LearnerConfig | None = None,
) -> TypedChunker:
    config = config or PipelineConfig()
    learner_config = learner_config or LearnerConfig()
    gold = [sorted(g) for g in gold]

    if strategy is TypeStrategy.SINGLE_PHASE:
        cfg = replace(config, typed=True)
        return SinglePhaseChunker(train_chunker(sentences, gold, cfg, learner_config))

    if strategy is TypeStrategy.DOUBLE_PHASE:
        cfg = replace(config, typed=False, default_type="CH")
        boundary = train_chunker(sentences, gold, cfg, learner_config)
        type_instances = [
            Instance(_type_features(s, spans, i), spans[i].type)
            for s, spans in zip(sentences, gold)
            for i in range(len(spans))
        ]
        type_model = train(type_instances, learner_config)
        return DoublePhaseChunker(boundary=boundary, type_model=type_model)

    # N-phase: one boundary chunker per chunk type.
    freq: dict[str, int] = {}
    for spans in gold:
        for s in spans:
            freq[s.type] = freq.get(s.type, 0) + 1
    order = tuple(sorted(freq, key=lambda t: (-freq[t], t)))
    per_type: dict[str, Chunker] = {}
    for typ in order:
        cfg = replace(config, typed=False, default_type=typ)
        filtered = [[s for s in spans if s.type == typ] for spans in gold]
        per_type[typ] = train_chunker(sentences, filtered, cfg, learner_config)
    return NPhaseChunker(per_type=per_type, type_order=order)


def chunk_typed(sentences: Sequence[Sentence], chunker: TypedChunker):
    """Typed chunk spans per sentence, per the chunker's strategy."""
    if isinstance(chunker, SinglePhaseChunker):
        return chunk_np(sentences, chunker.chunker)

    if isinstance(chunker, DoublePhaseChunker):
        boundaries = chunk_np(sentences, chunker.boundary)
        queries = []
        for s, spans in zip(sentences, boundaries):
            spans = sorted(spans)
            queries.extend(_type_features(s, spans, i) for i in range(len(spans)))
        labels = classify_labels(chunker.type_model, queries)
        out, pos = [], 0
        for spans in boundaries:
            spans = sorted(spans)
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


def _chunk_spans_of(sentence: Sentence) -> list[ChunkSpan]:
    tags = []
    for tok in sentence:
        if tok.chunk_tag is None:
            raise DomainError("clause identification requires chunk annotations")
        tags.append(tok.chunk_tag)
    return decode(tags, Scheme.IOB1)


@dataclass
class ClauseBracketer:
    """Open brackets from a majority of three taggers over the raw tokens;
    close brackets from one tagger over the chunk-compressed sentence."""

    open_models: tuple[Model, ...]
    close_model: Model
    open_templates: tuple[FeatureTemplate, ...] = CLAUSE_OPEN_TEMPLATES
    close_template: FeatureTemplate = CLAUSE_CLOSE_TEMPLATE

    def predict_opens(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        per_model = [
            tag_sentences(model, template, sentences)
            for model, template in zip(self.open_models, self.open_templates)
        ]
        return [
            [i for i, votes in enumerate(zip(*per_sentence)) if majority_vote(votes) == "("]
            for per_sentence in zip(*per_model)
        ]

    def predict_closes(self, sentences: Sequence[Sentence]) -> list[list[int]]:
        views = [compress_mapped(s, _chunk_spans_of(s)) for s in sentences]
        tags = tag_sentences(self.close_model, self.close_template, [c for c, _ in views])
        return [
            [origins[i][1] for i, tag in enumerate(stags) if tag == ")"]
            for (_, origins), stags in zip(views, tags)
        ]


def train_clause_bracketer(
    sentences: Sequence[Sentence],
    forests: Sequence[Sequence[ClauseNode]],
    learner_config: LearnerConfig | None = None,
) -> ClauseBracketer:
    learner_config = learner_config or LearnerConfig()

    open_sets = [{s for s, _ in clause_spans(f)} for f in forests]
    open_tags = [
        ["(" if i in opens else "." for i in range(len(s))]
        for s, opens in zip(sentences, open_sets)
    ]
    open_models = tuple(
        train_tagger(template, sentences, open_tags, learner_config)
        for template in CLAUSE_OPEN_TEMPLATES
    )

    views = [compress_mapped(s, _chunk_spans_of(s)) for s in sentences]
    close_tags = []
    for (_, origins), forest in zip(views, forests):
        ends = {e for _, e in clause_spans(forest)}
        close_tags.append(
            [")" if any(a <= e <= b for e in ends) else "." for a, b in origins]
        )
    close_model = train_tagger(
        CLAUSE_CLOSE_TEMPLATE, [c for c, _ in views], close_tags, learner_config
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
    """Open/close mark predictors for one nesting level; both read the same
    feature columns, extracted once per batch."""

    template: FeatureTemplate
    open_model: Model
    close_model: Model
    default_type: str = "NP"

    def predict(self, batch):
        tokens = [t for t, _origin, _si in batch]
        columns, bounds = extract(self.template, tokens)
        otags = classify_labels(self.open_model, columns)
        ctags = classify_labels(self.close_model, columns)
        return [
            (
                [mark_type(t, self.default_type) for t in otags[a:b]],
                [mark_type(t, self.default_type) for t in ctags[a:b]],
            )
            for a, b in bounds
        ]


@dataclass
class _CascadeState:
    tokens: list[Token]
    origin: list[tuple[int, int]]
    top: list[ChunkSpan]
    spans: set[ChunkSpan]
    length: int
    done: bool = False


def _run_cascade(
    sentences: Sequence[Sentence],
    base_spans: Sequence[Iterable[ChunkSpan]],
    levels: Sequence,
    match_mode: MatchMode,
    early_stop: bool,
) -> list[_CascadeState]:
    states = [
        _CascadeState(
            tokens=list(s),
            origin=[(i, i) for i in range(len(s))],
            top=sorted(spans),
            spans=set(spans),
            length=len(s),
        )
        for s, spans in zip(sentences, base_spans)
    ]
    for level in levels:
        active = [i for i, st in enumerate(states) if not st.done]
        if active:
            for i in active:
                st = states[i]
                new_tokens, rel = compress_mapped(st.tokens, st.top)
                st.origin = [
                    (st.origin[a][0], st.origin[b][1]) for a, b in rel
                ]
                st.tokens = new_tokens
            batch = [(states[i].tokens, states[i].origin, i) for i in active]
            for i, (omarks, cmarks) in zip(active, level.predict(batch)):
                st = states[i]
                found = balance_brackets(omarks, cmarks, match_mode)
                mapped = {
                    ChunkSpan(st.origin[s.start][0], st.origin[s.end][1], s.type)
                    for s in found
                }
                new = mapped - st.spans
                st.top = found
                if new:
                    st.spans |= new
                elif early_stop:
                    st.done = True
    return states


@dataclass
class NpParser:
    base: Chunker
    levels: list[BracketLevel]
    match_mode: MatchMode = MatchMode.SAME_TYPE


def parse_np(sentences: Sequence[Sentence], parser: NpParser):
    """Nested noun-phrase span sets found by repeated chunking."""
    base = chunk_np(sentences, parser.base)
    states = _run_cascade(sentences, base, parser.levels, parser.match_mode, True)
    return [sorted(st.spans) for st in states]


@dataclass
class FullParser:
    base: TypedChunker
    levels: list[BracketLevel]
    match_mode: MatchMode = MatchMode.SAME_TYPE


def _wrap_roots(states: list[_CascadeState]):
    """Add an "S" span over each non-empty sentence that lacks one."""
    out = []
    for st in states:
        spans = set(st.spans)
        if st.length:
            spans.add(ChunkSpan(0, st.length - 1, "S"))
        out.append(sorted(spans))
    return out


def parse_full(sentences: Sequence[Sentence], parser: FullParser):
    """Typed parse span sets; every sentence ends up under a clause root."""
    base = chunk_typed(sentences, parser.base)
    states = _run_cascade(sentences, base, parser.levels, parser.match_mode, False)
    return _wrap_roots(states)


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


def _level_views(sentence: Sentence, by_level: dict[int, list[ChunkSpan]], level: int):
    """Tokens compressed by all structure below ``level`` plus the position
    map from original indices into the compressed sentence."""
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


def train_bracket_level(
    sentences: Sequence[Sentence],
    stratified: Sequence[dict[int, list[ChunkSpan]]],
    level: int,
    template: FeatureTemplate,
    learner_config: LearnerConfig,
    typed: bool,
    default_type: str = "NP",
) -> BracketLevel | None:
    """Train one level's open/close predictors on brackets of that level only,
    over sentences compressed by the gold structure below it."""
    if not any(by_level.get(level) for by_level in stratified):
        return None
    views, open_tags, close_tags = [], [], []
    for s, by_level in zip(sentences, stratified):
        tokens, orig2cur = _level_views(s, by_level, level)
        otags, ctags = ["."] * len(tokens), ["."] * len(tokens)
        for sp in by_level.get(level, []):
            otags[orig2cur[sp.start]] = f"(-{sp.type}" if typed else "("
            ctags[orig2cur[sp.end]] = f")-{sp.type}" if typed else ")"
        views.append(tokens)
        open_tags.append(otags)
        close_tags.append(ctags)
    columns, bounds = extract(template, views)  # shared by both models
    return BracketLevel(
        template=template,
        open_model=_train_rows(columns, bounds, open_tags, learner_config),
        close_model=_train_rows(columns, bounds, close_tags, learner_config),
        default_type=default_type,
    )


def _train_levels(sentences, stratified, config, learner_config, count, typed):
    """Bracket levels 1..count at k = ``config.k_parse``, up to the first
    level with no gold spans."""
    level_cfg = replace(learner_config, k=config.k_parse)
    levels = []
    for level in range(1, count + 1):
        lm = train_bracket_level(
            sentences,
            stratified,
            level,
            config.level_template,
            level_cfg,
            typed=typed,
            default_type=config.default_type,
        )
        if lm is None:
            break
        levels.append(lm)
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
