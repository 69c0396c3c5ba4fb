"""Leak-free cross-validation for one- and two-phase taggers.

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

``CrossValidation`` runs both ``run_two_phase_cv`` and, one pass under
GOLD_IN_TRAIN per candidate template, the command line's ``select-features``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Mapping, Sequence

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
    """One fold per section; NESTED_CV needs 3, so that each inner fold has 2."""
    if n < (least := 3 if leak_mode is LeakMode.NESTED_CV else 2):
        raise DomainError(f"need at least {least} sections, got {n}")
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
            raise AssertionError(f"section {fold.test_section} leaks into its own training data")


# ---------------------------------------------------------------------------
# The runner: real learners over the sections, with each tag's provenance.


@dataclass(frozen=True)
class SectionResult:
    tags: tuple[tuple[str, ...], ...]
    provenance: frozenset[int]  # sections whose gold shaped these predictions


@dataclass
class CrossValidation:
    """Cross-validation per ``plan`` over one coded corpus, cut into
    ``sections`` of sentence indices, with ``scheme`` tags of each
    sentence's ``gold`` spans as labels.  The sentences of a set of sections
    are cut (``CodedCorpus.take``, in corpus order) and tagged once, and
    every ``run`` reuses them and their columns."""

    corpus: CodedCorpus
    gold: Sequence[list[ChunkSpan]]
    scheme: Scheme
    sections: Sequence[Sequence[int]]
    plan: FoldPlan
    _cuts: dict = field(default_factory=dict, repr=False)

    def _cut(self, key: tuple[int, ...]) -> tuple[CodedCorpus, CodedTags]:
        if key not in self._cuts:
            rows = sorted(i for s in key for i in self.sections[s])
            part = self.corpus.take(rows)
            spans = SpanArrays.of([self.gold[i] for i in rows], part.lengths)
            self._cuts[key] = part, CodedTags(*tag_codes(spans, self.scheme, typed=False))
        return self._cuts[key]

    def run(self, pass1_template: FeatureTemplate, learner_config: LearnerConfig,
            pass2_template: FeatureTemplate | None = None) -> dict[int, SectionResult]:
        """Each section's tags from one pass, or with ``pass2_template`` two,
        the second reading the first's tags as chunk context, and their
        provenance; AssertionError if that includes the section itself."""
        results: dict[int, SectionResult] = {}
        for fold in self.plan.folds:
            x = fold.test_section
            train, train_tags = self._cut(fold.phase1_train)  # both passes train on them
            model1 = train_tagger(pass1_template, train, train_tags, learner_config)
            provenance = set(fold.phase1_train)
            test = self._cut((x,))[0]
            tags = tag_sentences(model1, pass1_template, test)
            if pass2_template is not None:
                context = train_tags  # phase-2 training context: gold, or inner folds' tags
                if self.plan.leak_mode is LeakMode.NESTED_CV:
                    context = []
                    for y in fold.phase1_train:
                        inner = train_tagger(pass1_template, *self._cut(fold.inner[y]),
                                             learner_config)
                        context.extend(tag_sentences(inner, pass1_template, self._cut((y,))[0]))
                        provenance.update(fold.inner[y])
                model2 = train_tagger(pass2_template, train, train_tags, learner_config, context)
                tags = tag_sentences(model2, pass2_template, test, tags)
            if x in provenance:
                raise AssertionError(f"gold tags of section {x} leaked into its training")
            results[x] = SectionResult(tuple(map(tuple, tags)), frozenset(provenance))
        return results


def run_two_phase_cv(sections: Sequence[Sequence[list[Token]]],
                     gold: Sequence[Sequence[list[ChunkSpan]]], scheme: Scheme,
                     pass1_template: FeatureTemplate, pass2_template: FeatureTemplate,
                     learner_config: LearnerConfig, plan: FoldPlan) -> dict[int, SectionResult]:
    """``CrossValidation.run`` in two passes over ``sections`` of sentences,
    coded once."""
    if plan.n != len(sections) or plan.n != len(gold):
        raise DomainError("plan size does not match section count")
    ends = list(accumulate(map(len, sections), initial=0))
    corpus = CodedCorpus([s for section in sections for s in section])
    spans = [s for section in gold for s in section]
    cv = CrossValidation(corpus, spans, scheme, list(map(range, ends, ends[1:])), plan)
    return cv.run(pass1_template, learner_config, pass2_template)
