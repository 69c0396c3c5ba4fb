#!/usr/bin/env python3
"""Write the bundled synthetic corpora to disk in column format.

Produces train/test pairs for each task so the command line can be exercised
without licensed treebank data:

    np.train / np.test            word pos chunk     (noun phrase chunks)
    typed.train / typed.test      word pos chunk     (typed chunks)
    clauses.train / clauses.test  word pos chunk clause
    nested.train / nested.test    word pos tree      (nested noun phrases)
    trees.train / trees.test      word pos tree      (full bracketings)
"""

import argparse
import os

from mbparse.corpus import encode_bracket_column, encode_clause_column, write_corpus
from mbparse.schemes import Scheme, encode
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)


def rows(tokens, *columns):
    """Rows of word, pos, then the cells of ``columns``."""
    return [(t.word, t.pos, *cells) for t, *cells in zip(tokens, *columns)]


def chunk_rows(sentences, gold, typed):
    for s, g in zip(sentences, gold):
        yield rows(s, encode(g, Scheme.IOB1, len(s), typed=typed))


def tree_rows(sentences, gold):
    for s, g in zip(sentences, gold):
        yield rows(s, encode_bracket_column(g, len(s)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="toy-corpora")
    ap.add_argument("--train-size", type=int, default=300)
    ap.add_argument("--test-size", type=int, default=200)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--pos-noise", type=float, default=0.08)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    def path(name):
        return os.path.join(args.out, name)

    for part, size, seed in (
        ("train", args.train_size, args.seed),
        ("test", args.test_size, args.seed + 1000),
    ):
        s, g = np_chunk_corpus(size, seed=seed, pos_noise=args.pos_noise)
        write_corpus(chunk_rows(s, g, False), path(f"np.{part}"),
                     columns=("word", "pos", "chunk"))

        s, g = typed_chunk_corpus(size, seed=seed, pos_noise=args.pos_noise)
        write_corpus(chunk_rows(s, g, True), path(f"typed.{part}"),
                     columns=("word", "pos", "chunk"))

        s, chunks, forests = clause_corpus(size, seed=seed)
        clause_rows = [
            rows(sent, [t.chunk_tag for t in sent], encode_clause_column(forest, len(sent)))
            for sent, forest in zip(s, forests)
        ]
        write_corpus(clause_rows, path(f"clauses.{part}"),
                     columns=("word", "pos", "chunk", "clause"))

        write_corpus(tree_rows(*nested_np_corpus(size, seed=seed)),
                     path(f"nested.{part}"), columns=("word", "pos", "tree"))
        write_corpus(tree_rows(*parse_corpus(size, seed=seed)),
                     path(f"trees.{part}"), columns=("word", "pos", "tree"))

    print(f"wrote toy corpora to {args.out}/")


if __name__ == "__main__":
    main()
