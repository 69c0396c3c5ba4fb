"""``pipeline.train_tagger`` and the trainers built on it, checked against the
hand-rolled instance loops they replaced.  The loops are kept here as the
reference: every trained model must hold exactly the instances, in the same
order, that the loop would have built."""

from dataclasses import replace

import pytest

from mbparse import folds, pipeline
from mbparse.errors import DomainError
from mbparse.features import CodedCorpus, parse_template
from mbparse.folds import LeakMode, build_fold_plan, run_two_phase_cv
from mbparse.learner import Instance, LearnerConfig, TiePolicy, train
from mbparse.pipeline import (
    CLAUSE_CLOSE_TEMPLATE,
    CLAUSE_OPEN_TEMPLATES,
    DEFAULT_PASS1,
    DEFAULT_PASS2,
    PipelineConfig,
    tag_sentences,
    train_clause_bracketer,
    train_tagger,
    train_two_pass_stream,
    tree_levels,
)
from mbparse.schemes import Scheme, SpanArrays, clause_spans, encode
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)
from references import (
    compress_mapped,
    corpus_sections,
    decode_sentence,
    decoded_instances,
    encode_sentence,
    extract_token,
    level_views,
    stratify_levels,
    view_sentences,
)

LCFG = LearnerConfig(k=1)


def two_pass_reference(sentences, gold, scheme, pass1_template, pass2_template, typed):
    """Pass-1 and pass-2 training instances as ``train_two_pass_stream`` built
    them by hand."""
    gold_tags = [
        encode_sentence(spans, scheme, len(s), typed=typed) for s, spans in zip(sentences, gold)
    ]
    inst1 = [
        Instance(extract_token(s, i, pass1_template), tags[i])
        for s, tags in zip(sentences, gold_tags)
        for i in range(len(s))
    ]
    inst2 = []
    for s, tags in zip(sentences, gold_tags):
        ctx = [replace(t, chunk_tag=tag) for t, tag in zip(s, tags)]
        inst2.extend(
            Instance(extract_token(ctx, i, pass2_template), tags[i]) for i in range(len(ctx))
        )
    return tuple(inst1), tuple(inst2)


def clause_reference(sentences, forests):
    """Instances of the three open models and the close model, as
    ``train_clause_bracketer`` built them by hand."""
    open_sets = [{s for s, _ in clause_spans(f)} for f in forests]
    opens = [
        tuple(
            Instance(extract_token(s, i, template), "(" if i in open_sets[si] else ".")
            for si, s in enumerate(sentences)
            for i in range(len(s))
        )
        for template in CLAUSE_OPEN_TEMPLATES
    ]
    close_inst = []
    for si, s in enumerate(sentences):
        ends = {e for _, e in clause_spans(forests[si])}
        chunks = decode_sentence([t.chunk_tag for t in s], Scheme.IOB1)
        compressed, origins = compress_mapped(s, chunks)
        for i in range(len(compressed)):
            a, b = origins[i]
            label = ")" if any(a <= e <= b for e in ends) else "."
            close_inst.append(Instance(extract_token(compressed, i, CLAUSE_CLOSE_TEMPLATE), label))
    return opens, tuple(close_inst)


def bracket_level_reference(sentences, stratified, level, template, typed):
    """Open and close instances of one cascade level as
    ``train_bracket_level`` built them by hand; None for a level without
    gold spans."""
    inst_o, inst_c = [], []
    seen_any = False
    for s, by_level in zip(sentences, stratified):
        tokens, orig2cur = level_views(s, by_level, level)
        spans = by_level.get(level, [])
        if spans:
            seen_any = True
        opens = {orig2cur[sp.start]: sp.type for sp in spans}
        closes = {orig2cur[sp.end]: sp.type for sp in spans}
        for i in range(len(tokens)):
            feats = extract_token(tokens, i, template)
            otag = ctag = "."
            if i in opens:
                otag = f"(-{opens[i]}" if typed else "("
            if i in closes:
                ctag = f")-{closes[i]}" if typed else ")"
            inst_o.append(Instance(feats, otag))
            inst_c.append(Instance(feats, ctag))
    if not seen_any:
        return None
    return tuple(inst_o), tuple(inst_c)


def two_phase_cv_reference(sections, gold, scheme, t1, t2, learner_config, plan):
    """``run_two_phase_cv`` with its former per-phase instance builders.
    Returns the results and every dataset it trained on, in order."""
    datasets = []

    def train_recorded(inst):
        datasets.append(tuple(inst))
        return train(inst, learner_config)

    def pass1_instances(sentences, spans_per_sentence):
        out = []
        for s, spans in zip(sentences, spans_per_sentence):
            tags = encode(spans, scheme, len(s), typed=False)
            out.extend(Instance(extract_token(s, i, t1), tags[i]) for i in range(len(s)))
        return out

    def pass2_instances(sentences, spans_per_sentence, context_tags):
        out = []
        for s, spans, ctx in zip(sentences, spans_per_sentence, context_tags):
            gold_tags = encode(spans, scheme, len(s), typed=False)
            ctx_sent = [replace(t, chunk_tag=c) for t, c in zip(s, ctx)]
            out.extend(
                Instance(extract_token(ctx_sent, i, t2), gold_tags[i]) for i in range(len(s))
            )
        return out

    def concat(idx):
        sents, spans = [], []
        for s in idx:
            sents.extend(sections[s])
            spans.extend(gold[s])
        return sents, spans

    results = {}
    for fold in plan.folds:
        x = fold.test_section
        model1 = train_recorded(pass1_instances(*concat(fold.phase1_train)))
        inst2 = []
        train_prov = set(fold.phase1_train)
        for y in fold.phase1_train:
            if plan.leak_mode is LeakMode.GOLD_IN_TRAIN:
                ctx = [
                    encode(spans, scheme, len(s), typed=False)
                    for s, spans in zip(sections[y], gold[y])
                ]
            else:
                inner_model = train_recorded(pass1_instances(*concat(fold.inner[y])))
                ctx = tag_sentences(inner_model, t1, sections[y])
                train_prov.update(fold.inner[y])
            inst2.extend(pass2_instances(sections[y], gold[y], ctx))
        model2 = train_recorded(inst2)
        test_ctx = tag_sentences(model1, t1, sections[x])
        tags = tag_sentences(model2, t2, sections[x], test_ctx)
        provenance = frozenset(train_prov) | frozenset(fold.phase1_train)
        results[x] = folds.SectionResult(tags=tuple(map(tuple, tags)), provenance=provenance)
    return results, datasets


class TestTrainTagger:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda tags: tags[:-1],  # a sentence without tags
            lambda tags: tags + [["O"]],  # tags for a sentence that is not there
            lambda tags: [tags[0][:-1]] + tags[1:],  # one tag short
            lambda tags: tags[:2] + [tags[2] + ["O"]] + tags[3:],  # one tag over
        ],
    )
    def test_misaligned_tags_raise(self, edit):
        sents, gold = np_chunk_corpus(5, seed=61)
        tags = [encode(g, Scheme.IOB1, len(s)) for s, g in zip(sents, gold)]
        with pytest.raises(DomainError, match="line up"):
            train_tagger(parse_template("w[0]"), sents, edit(tags), LCFG)

    def test_short_context_raises(self):
        sents, gold = np_chunk_corpus(5, seed=62)
        tags = [encode(g, Scheme.IOB1, len(s)) for s, g in zip(sents, gold)]
        context = [t[:-1] for t in tags]
        with pytest.raises(DomainError, match="line up"):
            train_tagger(parse_template("w[0] c[-1]"), sents, tags, LCFG, context=context)


CONTEXT_EDITS = [
    lambda ctx: ctx[:-1],  # too few context lists
    lambda ctx: ctx + [["O"]],  # one for a sentence that is not there
    lambda ctx: [ctx[0][:-1]] + ctx[1:],  # one tag short
    lambda ctx: ctx[:2] + [ctx[2] + ["O"]] + ctx[3:],  # one tag over
]


@pytest.mark.parametrize(
    "edit", CONTEXT_EDITS, ids=["few-lists", "extra-list", "short-list", "long-list"]
)
class TestContextMismatch:
    """A context that does not line up with the sentences is an error for
    training and tagging alike, not a silently shorter tag list."""

    template = parse_template("w[0] c[-1,1]")

    def setup_method(self):
        self.sents, gold = np_chunk_corpus(5, seed=62)
        self.tags = [encode(g, Scheme.IOB1, len(s)) for s, g in zip(self.sents, gold)]

    def test_train_tagger(self, edit):
        with pytest.raises(DomainError, match="context does not line up"):
            train_tagger(self.template, self.sents, self.tags, LCFG, context=edit(self.tags))

    def test_tag_sentences(self, edit):
        model = train_tagger(self.template, self.sents, self.tags, LCFG, context=self.tags)
        with pytest.raises(DomainError, match="context does not line up"):
            tag_sentences(model, self.template, self.sents, edit(self.tags))


@pytest.mark.parametrize(
    "corpus, scheme, typed",
    [
        (np_chunk_corpus(30, seed=63), Scheme.IOB1, False),
        (np_chunk_corpus(30, seed=64), Scheme.IOE2, False),
        (np_chunk_corpus(30, seed=65), Scheme.O, False),
        (typed_chunk_corpus(30, seed=66), Scheme.C, True),
        (typed_chunk_corpus(30, seed=67), Scheme.IOB2, True),
    ],
)
def test_two_pass_stream_matches_reference(corpus, scheme, typed):
    sents, gold = corpus
    stream = train_two_pass_stream(
        sents, gold, scheme, DEFAULT_PASS1[scheme], DEFAULT_PASS2[scheme], LCFG, typed=typed
    )
    inst1, inst2 = two_pass_reference(
        sents, gold, scheme, DEFAULT_PASS1[scheme], DEFAULT_PASS2[scheme], typed
    )
    assert decoded_instances(stream.pass1_model.instances) == list(inst1)
    assert decoded_instances(stream.pass2_model.instances) == list(inst2)


def test_clause_bracketer_matches_reference():
    sents, _, forests = clause_corpus(30, seed=68)
    bracketer = train_clause_bracketer(sents, forests, LCFG)
    opens, close = clause_reference(sents, forests)
    assert [tuple(decoded_instances(m.instances)) for m in bracketer.open_models] == opens
    assert tuple(decoded_instances(bracketer.close_model.instances)) == close


@pytest.mark.parametrize(
    "corpus, typed",
    [(parse_corpus(30, seed=69), True), (nested_np_corpus(30, seed=70), False)],
)
def test_bracket_levels_match_reference(corpus, typed):
    sents, gold = corpus[0], corpus[1]
    stratified = [stratify_levels(g) for g in gold]
    template = parse_template("w[-2..2] p[-2..2]")
    config = PipelineConfig(level_template=template)
    top = max(max(by) for by in stratified)
    # asked for one level more than has gold spans, training stops below it
    coded = CodedCorpus(sents)
    tree, level = tree_levels(SpanArrays.of(gold, coded.lengths, nested=True))
    levels = pipeline._train_levels(coded, tree, level, config, LCFG, top + 1, typed)
    assert bracket_level_reference(sents, stratified, top + 1, template, typed) is None
    assert len(levels) == top
    for level, lm in enumerate(levels, 1):
        expected = bracket_level_reference(sents, stratified, level, template, typed)
        got = (lm.open_model.instances, lm.close_model.instances)
        assert tuple(tuple(decoded_instances(base)) for base in got) == expected


def test_level_views_match_the_reference_at_every_level(monkeypatch):
    """The views ``_train_levels`` builds, each level's from the one below,
    equal ``level_views`` built from scratch at every level it trains; an
    empty sentence and sentences whose levels run out early included."""
    sents, gold = parse_corpus(30, seed=72)
    sents, gold = [[], *sents, sents[0]], [[], *gold, []]  # no spans at all last
    stratified = [stratify_levels(g) for g in gold]
    assert len({max(by, default=-1) for by in stratified}) > 3
    seen = []

    def recording(corpus, view, spans, *args, **kwargs):
        seen.append((view, spans))

    monkeypatch.setattr(pipeline, "train_bracket_level", recording)
    coded = CodedCorpus(sents)
    tree, levels = tree_levels(SpanArrays.of(gold, coded.lengths, nested=True))
    pipeline._train_levels(coded, tree, levels, PipelineConfig(), LCFG, 19, typed=True)
    top = max(max(by, default=0) for by in stratified)
    assert len(seen) == top
    for level, (view, spans) in enumerate(seen, 1):
        assert spans.lists() == [by.get(level, []) for by in stratified]
        assert view_sentences(sents, view) == [
            level_views(s, by, level) for s, by in zip(sents, stratified)
        ]


@pytest.mark.parametrize("mode", list(LeakMode))
def test_two_phase_cv_matches_reference(mode, monkeypatch):
    secs = corpus_sections(4, 5, seed=71)
    sections = [s for s, _ in secs]
    gold = [g for _, g in secs]
    lcfg = LearnerConfig(k=3, tie_policy=TiePolicy.LEXICOGRAPHIC)
    args = (
        sections,
        gold,
        Scheme.IOE1,
        parse_template("w[-1..1] p[-1..1]"),
        parse_template("w[0] p[-1..1] c[-2,-1,1]"),
        lcfg,
        build_fold_plan(4, mode),
    )
    expected, expected_sets = two_phase_cv_reference(*args)

    datasets = []

    def recording(dataset, config=None):
        datasets.append(tuple(decoded_instances(dataset)))
        return train(dataset, config)

    monkeypatch.setattr(pipeline, "train", recording)
    assert run_two_phase_cv(*args) == expected
    assert datasets == expected_sets


@pytest.mark.parametrize("mode", list(LeakMode))
def test_two_phase_cv_codes_its_sections_once(mode, monkeypatch):
    """Every fold, inner fold and test section is cut from one coding."""
    secs = corpus_sections(4, 5, seed=71)
    codings = []
    init = CodedCorpus.__init__

    def recording(self, sentences=None, lengths=None, cells=None, channels=None):
        if sentences is not None or cells is not None:
            codings.append(len(sentences if sentences is not None else lengths))
        init(self, sentences, lengths, cells, channels)

    monkeypatch.setattr(CodedCorpus, "__init__", recording)
    run_two_phase_cv(
        [s for s, _ in secs],
        [g for _, g in secs],
        Scheme.IOB1,
        parse_template("w[-1..1] p[-1..1]"),
        parse_template("w[0] p[-1..1] c[-1,1]"),
        LearnerConfig(k=3),
        build_fold_plan(4, mode),
    )
    assert codings == [sum(len(s) for s, _ in secs)]
