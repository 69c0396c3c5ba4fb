"""Seeded synthetic corpora built from context-free sentence templates.

The licensed treebank corpora cannot ship with the code, so tests and demos
use small generated corpora instead: flat noun-phrase chunking data, typed
chunk data, nested noun phrases, full bracketings with clauses, and clause
data with chunk annotations, whose clauses are sorted "S" spans.  POS tags
can carry tagger-style noise so that learners make representation-dependent
errors.
"""

from __future__ import annotations

import random
from dataclasses import replace
from .features import Token
from .schemes import ChunkSpan, Scheme, encode

_DT = ["the", "a", "this", "each", "its"]
_JJ = ["big", "old", "new", "red", "early", "foreign", "late", "strong"]
_NN = ["market", "trader", "price", "share", "deal", "bank", "gold", "index",
       "report", "week", "profit", "rate"]
_NNS = ["shares", "stocks", "bonds", "gains", "losses", "futures", "traders"]
_NNP_PAIRS = [("Hong", "Kong"), ("New", "York"), ("Wall", "Street"),
              ("Nigel", "Lawson"), ("Alan", "Greenspan")]
_TIME = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "January",
         "February", "March", "April", "June", "July", "August", "September",
         "October", "November", "December", "today", "yesterday", "tomorrow"]
_VBD = ["rose", "fell", "bought", "sold", "said", "quoted", "traded", "gained",
        "eased", "reported"]
# Gerunds occur both inside noun phrases (tagged NN) and as verbs (VBG).
_GER = ["trading", "lending", "selling", "rising", "pricing", "hedging"]
_RB = ["sharply", "slightly", "again", "quietly"]
_IN = ["in", "on", "at", "of", "with", "over", "by"]
_CD = ["5", "12", "100", "366.50", "2.5"]

# Low-frequency nouns force the learner to fall back on POS information.
_SYL_A = ["bar", "den", "fil", "gor", "hul", "jin", "kem", "lop", "mak", "nor",
          "pid", "rol", "sev", "tam", "vun"]
_SYL_B = ["a", "o", "u", "in", "er", "as", "ic", "ul"]
_RARE_NN = [a + b for a in _SYL_A for b in _SYL_B]

# Plausible tagger confusions, applied with the pos_noise probability.
_CONFUSIONS = {"NN": "VBD", "NNS": "VBZ", "VBD": "NN", "JJ": "NN", "NNP": "NN",
               "VBG": "NN"}


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tokens: list[Token] = []
        self.spans: list[ChunkSpan] = []

    def add(self, word: str, pos: str):
        self.tokens.append(Token(word, pos))
        return len(self.tokens) - 1

    def mark(self, start: int, typ: str):
        self.spans.append(ChunkSpan(start, len(self.tokens) - 1, typ))


def _noun(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.45:
        return rng.choice(_NN)
    if r < 0.6:
        return rng.choice(_GER)
    return rng.choice(_RARE_NN)


def _base_np(b: _Builder, mark: bool = True) -> None:
    rng = b.rng
    start = len(b.tokens)
    form = rng.random()
    if form < 0.4:
        b.add(rng.choice(_DT), "DT")
        if rng.random() < 0.4:
            b.add(rng.choice(_JJ), "JJ")
        b.add(_noun(rng), "NN")
    elif form < 0.55:
        first, second = rng.choice(_NNP_PAIRS)
        b.add(first, "NNP")
        b.add(second, "NNP")
    elif form < 0.7:
        b.add(rng.choice(_NNS), "NNS")
    elif form < 0.85:
        b.add("$", "$")
        b.add(rng.choice(_CD), "CD")
    else:
        b.add(rng.choice(_DT), "DT")
        b.add(_noun(rng), "NN")
        b.add(_noun(rng), "NN")
    if mark:
        b.mark(start, "NP")


def _possessive_nps(b: _Builder) -> None:
    """Owner phrase and a possessive phrase that opens with the clitic."""
    rng = b.rng
    first, second = rng.choice(_NNP_PAIRS)
    start = b.add(first, "NNP")
    b.add(second, "NNP")
    b.mark(start, "NP")
    start = b.add("'s", "POS")
    if rng.random() < 0.5:
        b.add(rng.choice(_JJ), "JJ")
    b.add(_noun(rng), "NN")
    b.mark(start, "NP")


def _time_np(b: _Builder) -> None:
    word = b.rng.choice(_TIME)
    start = b.add(word, "NNP" if word[0].isupper() else "NN")
    b.mark(start, "NP")


def _vp(b: _Builder, mark: bool = False) -> None:
    rng = b.rng
    start = len(b.tokens)
    if rng.random() < 0.3:
        b.add(rng.choice(_RB), "RB")
    if rng.random() < 0.25:
        b.add(rng.choice(["was", "were"]), "VBD")
        b.add(rng.choice(_GER), "VBG")
    else:
        b.add(rng.choice(_VBD), "VBD")
    if mark:
        b.mark(start, "VP")


def _apply_pos_noise(tokens: list[Token], rng: random.Random, rate: float):
    noisy = []
    for tok in tokens:
        if rate > 0 and tok.pos in _CONFUSIONS and rng.random() < rate:
            noisy.append(replace(tok, pos=_CONFUSIONS[tok.pos]))
        else:
            noisy.append(tok)
    return noisy


def np_chunk_corpus(n_sentences: int, seed: int, pos_noise: float = 0.05):
    """Flat noun-phrase chunking corpus: (sentences, gold span sets).

    Time noun phrases are placed directly after object noun phrases often
    enough to exercise the chunk-boundary tags between adjacent chunks.
    """
    rng = random.Random(seed)
    sentences, gold = [], []
    for _ in range(n_sentences):
        b = _Builder(rng)
        if rng.random() < 0.15:
            _time_np(b)
            b.add(",", ",")
        if rng.random() < 0.15:
            _possessive_nps(b)
        else:
            _base_np(b)
        _vp(b)
        if rng.random() < 0.85:
            _base_np(b)
            r = rng.random()
            if r < 0.5:
                _time_np(b)  # adjacent noun phrases
            elif r < 0.65:
                b.add("and", "CC")
                _base_np(b)
        if rng.random() < 0.5:
            b.add(rng.choice(_IN), "IN")
            _base_np(b)
            if rng.random() < 0.3:
                _time_np(b)
        b.add(".", ".")
        sentences.append(_apply_pos_noise(b.tokens, rng, pos_noise))
        gold.append(sorted(b.spans))
    return sentences, gold


def typed_chunk_corpus(n_sentences: int, seed: int, pos_noise: float = 0.05):
    """Flat corpus with NP, VP, PP and ADVP chunks; punctuation stays outside."""
    rng = random.Random(seed)
    sentences, gold = [], []
    for _ in range(n_sentences):
        b = _Builder(rng)
        _base_np(b)
        _vp(b, mark=True)
        if rng.random() < 0.75:
            _base_np(b)
        if rng.random() < 0.5:
            start = b.add(rng.choice(_IN), "IN")
            b.mark(start, "PP")
            _base_np(b)
        if rng.random() < 0.25:
            start = b.add(rng.choice(_RB), "RB")
            b.mark(start, "ADVP")
        b.add(".", ".")
        sentences.append(_apply_pos_noise(b.tokens, rng, pos_noise))
        gold.append(sorted(b.spans))
    return sentences, gold


def _nested_np(b: _Builder, depth: int) -> None:
    """A noun phrase possibly containing smaller noun phrases via "of"."""
    rng = b.rng
    if depth <= 0 or rng.random() < 0.35:
        _base_np(b)
        return
    start = len(b.tokens)
    if rng.random() < 0.3:
        # money reading: two adjacent inner phrases under one cover
        _base_np(b)
        _base_np(b)
    else:
        _base_np(b)
        b.add("of", "IN")
        _nested_np(b, depth - 1)
    b.mark(start, "NP")


def nested_np_corpus(n_sentences: int, seed: int, max_depth: int = 2):
    """Sentences with noun phrases nested up to ``max_depth`` levels above base."""
    rng = random.Random(seed)
    sentences, gold = [], []
    for _ in range(n_sentences):
        b = _Builder(rng)
        _nested_np(b, rng.randint(0, max_depth))
        _vp(b)
        _nested_np(b, rng.randint(0, max_depth))
        b.add(".", ".")
        sentences.append(b.tokens)
        gold.append(sorted(set(b.spans)))
    return sentences, gold


def _pp_phrase(b: _Builder, depth: int) -> None:
    start = len(b.tokens)
    p = b.add(b.rng.choice(_IN), "IN")
    b.mark(p, "PP")  # leaf chunk: the preposition
    _nested_np(b, depth)
    b.mark(start, "PP")  # full phrase spanning preposition and noun phrase


def _clause(b: _Builder, depth: int, embed: float) -> None:
    start = len(b.tokens)
    _nested_np(b, min(depth, 1))
    _vp(b, mark=True)
    if b.rng.random() < 0.7:
        _nested_np(b, min(depth, 1))
    if b.rng.random() < 0.5:
        _pp_phrase(b, 0)
    if depth > 0 and b.rng.random() < embed:
        s2 = len(b.tokens)
        b.add("that", "IN")
        _clause(b, depth - 1, embed)
        b.mark(s2, "S")
    if start == 0:
        b.add(".", ".")
    b.mark(start, "S")


def parse_corpus(n_sentences: int, seed: int, embed: float = 0.6):
    """Full bracketings: leaf chunks (NP/VP/PP), nested phrases and clauses.

    Every sentence's outermost span is an S covering all tokens.
    """
    rng = random.Random(seed)
    sentences, gold = [], []
    for _ in range(n_sentences):
        b = _Builder(rng)
        _clause(b, rng.randint(0, 2), embed)
        sentences.append(b.tokens)
        gold.append(sorted(set(b.spans)))
    return sentences, gold


def clause_corpus(n_sentences: int, seed: int, embed: float = 0.7):
    """Clause data: sentences whose tokens carry typed chunk tags, the chunk
    span sets, and the gold clauses as sorted "S" spans."""
    sentences, gold = parse_corpus(n_sentences, seed, embed)
    out_sents, out_chunks, out_clauses = [], [], []
    for tokens, spans in zip(sentences, gold):
        leaves = sorted(
            s
            for s in spans
            if not any(
                t != s and t.start >= s.start and t.end <= s.end for t in spans
            )
        )
        tags = encode(leaves, Scheme.IOB1, len(tokens), typed=True)
        out_sents.append(
            [replace(tok, chunk_tag=tag) for tok, tag in zip(tokens, tags)]
        )
        out_chunks.append(leaves)
        out_clauses.append([s for s in spans if s.type == "S"])
    return out_sents, out_chunks, out_clauses

