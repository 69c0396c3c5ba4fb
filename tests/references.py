"""Plain references and test fakes shared by the test modules.

Nothing here is collected as a test.  The references are the straightforward
versions that the library's fast paths are compared against; the oracles
replay gold annotations in place of trained components, so pipeline
plumbing can be tested on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from mbparse.combine import _FORMAT as _WEIGHTS_FORMAT
from mbparse.combine import CombineMethod, CombinerWeights
from mbparse.errors import DomainError
from mbparse.features import FeatureTemplate, Token
from mbparse.learner import PAD, TiePolicy
from mbparse.pipeline import _run_cascade, _wrap_roots, chunk_typed
from mbparse.schemes import ChunkSpan, ClauseNode, Scheme, clause_spans, encode
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
# Learner.


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


def dense_winner_ids(model, queries, block=512):
    """The dense sort-and-rank kernel, with its own index: it adds one float64
    b x n mismatch array per weighted feature, sorts every row and ranks the
    distinct distances.  Yields (labels, nearest distances, vote count
    matrix) per block, the vote columns in ``preference_order``."""
    n = len(model.instances)
    arity = model.arity
    matrix = np.empty((n, arity), dtype=np.int32)
    codes = []
    for i, column in enumerate(zip(*(inst.features for inst in model.instances))):
        table = {v: code for code, v in enumerate(dict.fromkeys(column))}
        matrix[:, i] = [table[v] for v in column]
        codes.append(table)
    encoded = np.full((len(queries), arity), -1, dtype=np.int32)
    for i, (column, table) in enumerate(zip(zip(*queries), codes)):
        encoded[:, i] = [table.get(v, -1) for v in column]
    pref = preference_order(model)
    label_pos = {c: i for i, c in enumerate(pref)}
    label_ids = np.array([label_pos[inst.label] for inst in model.instances], dtype=np.int32)
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


# ---------------------------------------------------------------------------
# Combination.


def load_weights(path) -> CombinerWeights:
    """Read back what ``combine.save_weights`` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _WEIGHTS_FORMAT:
        raise DomainError(f"{path}: not a {_WEIGHTS_FORMAT!r} file")
    if len(lines) < 2 or not lines[1].startswith("method "):
        raise DomainError(f"{path}: missing method line")
    weights = CombinerWeights(method=CombineMethod(lines[1].split(" ", 1)[1]))
    for line in lines[2:]:
        if not line:
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "acc":
            weights.accuracy[int(fields[1])] = float(fields[2])
        elif kind == "prec":
            weights.precision[(int(fields[1]), fields[2])] = float(fields[3])
        elif kind == "rec":
            weights.recall[(int(fields[1]), fields[2])] = float(fields[3])
        elif kind == "pair":
            key = (int(fields[1]), int(fields[2]), fields[3], fields[4])
            weights.pair_cond.setdefault(key, {})[fields[5]] = float(fields[6])
        elif kind == "freq":
            weights.base_freq[fields[1]] = float(fields[2])
        else:
            raise DomainError(f"{path}: unknown record {kind!r}")
    return weights


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
            for s, spans in zip(sentences, self.gold)
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

    def predict(self, batch):
        out = []
        for tokens, origin, si in batch:
            start_at = {origin[j][0]: j for j in range(len(origin))}
            end_at = {origin[j][1]: j for j in range(len(origin))}
            current = {(origin[j][0], origin[j][1]) for j in range(len(origin))}
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
        states = _run_cascade(sentences, base, parser.levels[:j], parser.match_mode, False)
        snapshots.append([sorted(st.spans) for st in states])
    return snapshots + [_wrap_roots(states)]
