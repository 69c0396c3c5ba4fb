"""Leak-free training-data construction for cascaded cross-validation.

A two-phase learner tags its own training corpus in phase one and consumes
those tags as context features in phase two.  Done naively in n-fold
cross-validation, gold tags of a test section reach its training material
through the phase-one predictions.  Two preventions are supported:

* NESTED_CV: the phase-two training tags for section x come from an inner
  (n-1)-fold cross-validation over the sections other than x.
* GOLD_IN_TRAIN: phase-two training rows carry corpus (gold) context tags;
  only test rows carry predicted tags.

Every produced tag carries the set of sections whose gold annotations
influenced it, so leak-freedom is a checkable assertion, not a convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .features import CodedCorpus, CodedTags, FeatureTemplate, Token
from .learner import LearnerConfig
from .pipeline import tag_sentences, train_tagger
from .schemes import ChunkSpan, Scheme, SpanArrays, tag_codes


class LeakMode(Enum):
    NESTED_CV = "nested_cv"
    GOLD_IN_TRAIN = "gold_in_train"


@dataclass(frozen=True)
class Fold:
    test_section: int
    phase1_train: tuple[int, ...]
    # NESTED_CV only: per training section, the sections used to produce its
    # phase-two context tags.
    inner: Mapping[int, tuple[int, ...]] | None


@dataclass(frozen=True)
class FoldPlan:
    n: int
    leak_mode: LeakMode
    folds: tuple[Fold, ...]


def build_fold_plan(n: int, leak_mode: LeakMode) -> FoldPlan:
    if n < 3:
        raise DomainError(f"need at least 3 sections, got {n}")
    folds = []
    sections = tuple(range(n))
    for x in sections:
        others = tuple(s for s in sections if s != x)
        inner = None
        if leak_mode is LeakMode.NESTED_CV:
            inner = {y: tuple(s for s in others if s != y) for y in others}
        folds.append(Fold(test_section=x, phase1_train=others, inner=inner))
    return FoldPlan(n=n, leak_mode=leak_mode, folds=tuple(folds))


def training_gold_closure(plan: FoldPlan, fold: Fold) -> frozenset[int]:
    """Sections whose gold annotations reach this fold's training material,
    through any number of phases."""
    closure = set(fold.phase1_train)  # phase-1 labels, phase-2 labels
    if fold.inner is not None:
        for y, inner_train in fold.inner.items():
            closure.add(y)
            closure.update(inner_train)  # context tags for y's phase-2 rows
    return frozenset(closure)


def assert_leak_free(plan: FoldPlan) -> None:
    for fold in plan.folds:
        closure = training_gold_closure(plan, fold)
        if fold.test_section in closure:
            raise AssertionError(
                f"section {fold.test_section} leaks into its own training data"
            )


# ---------------------------------------------------------------------------
# Executable check: run a real two-phase learner over sections, tracking the
# provenance of every derived tag.


@dataclass(frozen=True)
class SectionResult:
    tags: tuple[tuple[str, ...], ...]
    provenance: frozenset[int]  # sections whose gold shaped these predictions


def run_two_phase_cv(
    sections: Sequence[Sequence[list[Token]]],
    gold: Sequence[Sequence[list[ChunkSpan]]],
    scheme: Scheme,
    pass1_template: FeatureTemplate,
    pass2_template: FeatureTemplate,
    learner_config: LearnerConfig,
    plan: FoldPlan,
) -> dict[int, SectionResult]:
    """Tag every section with a two-phase learner trained per the fold plan.

    Raises AssertionError if any produced tag's provenance includes its own
    section; returns per-section predictions with provenance.
    """
    if plan.n != len(sections) or plan.n != len(gold):
        raise DomainError("plan size does not match section count")

    def concat(idx: Iterable[int]):
        """The sections' sentences as one coded corpus, and their tags."""
        sents, spans = [], []
        for s in idx:
            sents.extend(sections[s])
            spans.extend(gold[s])
        corpus = CodedCorpus(sents)
        tags = tag_codes(SpanArrays.of(spans, corpus.lengths), scheme, typed=False)
        return corpus, CodedTags(*tags)

    results: dict[int, SectionResult] = {}
    for fold in plan.folds:
        x = fold.test_section
        p1_sents, p1_tags = concat(fold.phase1_train)  # both passes train on them
        model1 = train_tagger(pass1_template, p1_sents, p1_tags, learner_config)
        model1_prov = frozenset(fold.phase1_train)

        # context tags of the phase-2 training rows
        train_prov: set[int] = set(fold.phase1_train)
        if plan.leak_mode is LeakMode.GOLD_IN_TRAIN:
            context = p1_tags
        else:
            context = []
            for y in fold.phase1_train:
                inner_model = train_tagger(
                    pass1_template, *concat(fold.inner[y]), learner_config
                )
                context.extend(tag_sentences(inner_model, pass1_template, sections[y]))
                train_prov.update(fold.inner[y])
        model2 = train_tagger(
            pass2_template, p1_sents, p1_tags, learner_config, context=context
        )

        test = CodedCorpus(sections[x])  # both passes tag it
        test_ctx = tag_sentences(model1, pass1_template, test)
        tags = tag_sentences(model2, pass2_template, test, test_ctx)
        provenance = frozenset(train_prov) | model1_prov
        if x in provenance:
            raise AssertionError(f"gold tags of section {x} leaked into its training")
        results[x] = SectionResult(tags=tuple(map(tuple, tags)), provenance=provenance)
    return results
