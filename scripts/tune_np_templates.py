#!/usr/bin/env python3
"""Greedy cross-validated feature selection per data representation.

Reproduces the frozen first-pass templates used by the end-to-end acceptance
test: for each representation stream, forward-select word/POS offsets by
3-fold cross-validated tag accuracy on the bundled training corpus.
"""

import argparse

from mbparse.features import FeatureTemplate, format_template
from mbparse.learner import LearnerConfig
from mbparse.pipeline import tag_sentences, train_tagger
from mbparse.schemes import Scheme, encode
from mbparse.synth import np_chunk_corpus


def cv_accuracy(sentences, gold, scheme, template, k, folds=3):
    tags = [encode(g, scheme, len(s), typed=False) for s, g in zip(sentences, gold)]
    correct = total = 0
    for f in range(folds):
        train_idx = [i for i in range(len(sentences)) if i % folds != f]
        test_idx = [i for i in range(len(sentences)) if i % folds == f]
        model = train_tagger(
            template,
            [sentences[i] for i in train_idx],
            [tags[i] for i in train_idx],
            LearnerConfig(k=k),
        )
        predicted = tag_sentences(model, template, [sentences[i] for i in test_idx])
        for i, found in zip(test_idx, predicted):
            correct += sum(p == t for p, t in zip(found, tags[i]))
            total += len(found)
    return correct / total


def greedy_select(sentences, gold, scheme, pool, k):
    chosen, best = [], 0.0
    while True:
        remaining = [a for a in pool if a not in chosen]
        if not remaining:
            break
        scored = sorted(
            (
                (cv_accuracy(sentences, gold, scheme,
                             FeatureTemplate.from_atoms(chosen + [a]), k), a)
                for a in remaining
            ),
            key=lambda x: (-x[0], str(x[1])),
        )
        if scored[0][0] <= best:
            break
        best = scored[0][0]
        chosen.append(scored[0][1])
    return FeatureTemplate.from_atoms(chosen), best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=300)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--pos-noise", type=float, default=0.08)
    ap.add_argument("--k", type=int, default=3)
    args = ap.parse_args()

    sentences, gold = np_chunk_corpus(args.size, seed=args.seed,
                                      pos_noise=args.pos_noise)
    pool = [("w", o) for o in range(-2, 3)] + [("p", o) for o in range(-3, 4)]
    for scheme in (Scheme.IOB1, Scheme.IOE2, Scheme.O, Scheme.C):
        template, acc = greedy_select(sentences, gold, scheme, pool, args.k)
        print(f"{scheme.value:5s} {format_template(template):32s} acc={acc:.4f}",
              flush=True)


if __name__ == "__main__":
    main()
