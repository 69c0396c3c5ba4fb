"""Instance-based k-NN classification with entropy-normalized feature weights.

Learning stores the training instances verbatim.  A query is compared to
every stored instance with the weighted overlap metric (sum of per-feature
weights over mismatching positions) and labeled by majority vote over the
instances falling in the k nearest *distinct* distance values.

A model keeps its instances integer-coded column by column from the moment
it is trained or loaded (``InstanceBase``).  Training takes an
``InstanceBase`` as it is, or codes a sequence of ``Instance`` once,
checking their arity on the way; the gain-ratio weights are tabulated from
the codes (value and (value, class) counts), with every entropy summing its
terms in the order a walk down the rows would.  ``classify_labels`` is the
one batch entry point, and ``classify`` labels a single query through it.
Queries come as feature tuples or as ``FeatureColumns``, whose distinct
values are translated into the model's codes; symbols are strings only
there and when a model is saved or decoded.

The query kernel codes which of the first 16 weighted features mismatch as
one uint16 per (query, instance) pair, a byte at a time.  A table holds
every subset's weight sum, built in feature order so that each entry is the
left-to-right sum a plain loop over the features would make.  When no
weighted feature falls past the table, the kernel gathers each pair's rank
among the table's distinct rounded distances, a uint16, and selects on
ranks; otherwise it gathers float64 distances, adds the further features
one column at a time and rounds.  The k nearest distinct distances are
found by k row-minimum passes instead of a sort, and the votes are one
exact matrix product of the in-range mask with the labels' one-hot matrix;
the kernel yields each block's winning label ids and vote counts.
Queries run in blocks whose scratch arrays fit a 2 MiB budget, about the
size of a core's L2 cache.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError

# Reserved out-of-vocabulary symbol for positions outside a sentence.
PAD = "__"

# Weights all below this threshold count as a degenerate (all-zero) table.
DEGENERATE_WEIGHT_EPS = 1e-12

# Distances equal after rounding to this many decimals share a distance set.
_DISTANCE_DECIMALS = 9

# Weighted features whose mismatches are coded into one uint16 per pair and
# summed by table lookup; any further weighted feature is added column-wise.
_TABLE_FEATURES = 16

# Most scratch bytes the kernel holds at once per (query, instance) pair of a
# block: the bool mismatch mask, the uint16 code, and np.take's intp copy of
# the code with the uint16 ranks it gathers.  Building the code (mask, code
# and one uint8 byte of bits: 1 + 2 + 1), the float64 distances of the other
# path (1 + 2 + 8) and the float32 copy of the vote mask (1 + 4) take less.
_PAIR_SCRATCH_BYTES = 1 + 2 + 8 + 2

# Scratch memory one block of queries may take, about a core's L2 cache: the
# kernel streams over its block several times per feature.  A block holds as
# many queries as fit, and at least one.
_SCRATCH_BUDGET = 2 * 2**20


class TiePolicy(Enum):
    GLOBAL_CLASS_FREQUENCY = "global_class_frequency"
    LEXICOGRAPHIC = "lexicographic"


@dataclass(frozen=True)
class Instance:
    """One categorical feature vector plus its class label."""

    features: tuple[str, ...]
    label: str

    def __post_init__(self):
        if len(self.features) < 1:
            raise DomainError("instance needs at least one feature")


@dataclass(frozen=True)
class LearnerConfig:
    k: int = 3
    tie_policy: TiePolicy = TiePolicy.GLOBAL_CLASS_FREQUENCY
    degenerate_weight_fallback: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class WeightTable:
    """Per-feature weights, in feature order."""

    weights: tuple[float, ...]


def _entropy(counts, total) -> float:
    """Entropy of counts summing to ``total``, its terms summed in order.

    ``total`` may be an int or the float of one: both give the same
    correctly rounded quotient for every count.
    """
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Feature vectors stored column by column, integer-coded.

    ``codes[i]`` maps each value of feature i to its code, numbered in order
    of first occurrence down the column; ``matrix`` holds every row's codes,
    n x arity int32 and column-major.  As a sequence it decodes to the rows'
    feature tuples.
    """

    codes: tuple[dict[str, int], ...]
    matrix: np.ndarray

    @property
    def arity(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        if not self.codes:
            return iter([()] * len(self))
        return zip(*(
            map(list(table).__getitem__, self.matrix[:, i].tolist())
            for i, table in enumerate(self.codes)
        ))


@dataclass(frozen=True, eq=False)
class InstanceBase(FeatureColumns):
    """Training instances: coded feature columns plus every row's class.

    As a sequence it decodes to the ``Instance`` rows in their stored order,
    and it equals any sequence of the same instances.
    """

    labels: tuple[str, ...]

    @staticmethod
    def from_columns(
        columns: Sequence[Sequence[str]], labels: Sequence[str]
    ) -> "InstanceBase":
        n = len(labels)
        matrix = np.empty((n, len(columns)), dtype=np.int32, order="F")
        codes = []
        for i, column in enumerate(columns):
            table = {v: code for code, v in enumerate(dict.fromkeys(column))}
            matrix[:, i] = np.fromiter(map(table.__getitem__, column), np.int32, n)
            codes.append(table)
        return InstanceBase(tuple(codes), matrix, tuple(labels))

    @staticmethod
    def from_rows(dataset: Sequence[Instance]) -> "InstanceBase":
        """Code a sequence of ``Instance``, checking their arity on the way."""
        if not dataset:
            raise DomainError("empty dataset")
        arity = len(dataset[0].features)
        features, labels = [], []
        for inst in dataset:
            if len(inst.features) != arity:
                raise DomainError(
                    f"mixed arity: expected {arity}, got {len(inst.features)}"
                )
            features.append(inst.features)
            labels.append(inst.label)
        return InstanceBase.from_columns(list(zip(*features)), labels)

    def __iter__(self):
        return map(Instance, super().__iter__(), self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (InstanceBase, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _instance_base(dataset: InstanceBase | Sequence[Instance]) -> InstanceBase:
    """The dataset as a non-empty ``InstanceBase`` with at least one feature."""
    if not isinstance(dataset, InstanceBase):
        return InstanceBase.from_rows(dataset)
    if not len(dataset):
        raise DomainError("empty dataset")
    if not dataset.arity:
        raise DomainError("instance needs at least one feature")
    return dataset


def gain_ratio_weights(dataset: InstanceBase | Sequence[Instance]) -> WeightTable:
    """Information gain of each feature about the class, normalized by the
    feature's own value entropy.  Constant features get weight 0.

    Counts come from the codes.  Values are coded in order of first
    occurrence (as ``FeatureColumns`` requires), and each value's classes
    are taken in order of the first occurrence of the (value, class) pair,
    so every entropy sums its terms in the order a walk down the rows meets
    them and the weights equal those of that walk to the last bit.
    """
    base = _instance_base(dataset)
    n = len(base)
    label_code = {c: i for i, c in enumerate(dict.fromkeys(base.labels))}
    y = np.fromiter(map(label_code.__getitem__, base.labels), np.int64, n)
    h_class = _entropy(np.bincount(y).tolist(), n)
    weights = []
    for i in range(base.arity):
        column = base.matrix[:, i]
        value_counts = np.bincount(column).tolist()
        h_value = _entropy(value_counts, n)
        if h_value == 0.0:
            weights.append(0.0)  # constant feature carries no information
            continue
        keys = column * np.int64(len(label_code)) + y
        pairs, first, counts = np.unique(keys, return_index=True, return_counts=True)
        values = pairs // len(label_code)
        counts = counts[np.lexsort((first, values))].tolist()
        # each value's class counts are a run, values in code order; a value
        # seen with one class has class entropy 0 and adds nothing
        classes = np.bincount(values)
        ends = np.cumsum(classes)
        mixed = np.flatnonzero(classes > 1)
        expected = 0.0
        for v, a, b in zip(
            mixed.tolist(), (ends - classes)[mixed].tolist(), ends[mixed].tolist()
        ):
            nv = value_counts[v]
            expected += (nv / n) * _entropy(counts[a:b], nv)
        weights.append(max(0.0, (h_class - expected) / h_value))
    return WeightTable(tuple(weights))


@dataclass(frozen=True)
class Model:
    """An immutable trained classifier; safe to share across workers.

    ``instances`` may be given as any sequence of ``Instance``; the model
    keeps it as an ``InstanceBase``.
    """

    instances: InstanceBase
    weight_table: WeightTable
    config: LearnerConfig
    class_frequencies: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.instances, InstanceBase):
            base = InstanceBase.from_rows(self.instances)
            object.__setattr__(self, "instances", base)

    @property
    def arity(self) -> int:
        return len(self.weight_table.weights)

    @cached_property
    def _index(self) -> "_ModelIndex":
        return _ModelIndex.build(self)


class _ModelIndex:
    """The distance kernel's view of a model: its coded instances and what
    the kernel derives from the weights and labels."""

    def __init__(self, codes, matrix, head, table, tail, ranks, labels_in_pref, onehot):
        self.codes = codes              # per feature: symbol -> int
        self.matrix = matrix            # n x arity int32, column-major
        self.head = head                # features coded into the mismatch table
        self.table = table              # 2**len(head) float64 distances by code
        self.tail = tail                # (feature, weight) added past the table
        self.ranks = ranks              # uint16 rank of each rounded table entry
        self.labels_in_pref = labels_in_pref  # labels, tie-preference order
        self.onehot = onehot            # n x n_labels 0/1 float vote matrix

    @staticmethod
    def build(model: "Model") -> "_ModelIndex":
        base = model.instances
        weights = model.weight_table.weights
        weighted = [i for i, w in enumerate(weights) if w != 0.0]
        head = weighted[:_TABLE_FEATURES]
        # bit j of a code is head feature j, so doubling in feature order
        # sums every subset's weights left to right
        table = np.zeros(1)
        for i in head:
            table = np.concatenate([table, table + weights[i]])
        tail = [(i, weights[i]) for i in weighted[_TABLE_FEATURES:]]
        # equal rounded distances share a rank, and ranks keep their order
        ranks = None
        if not tail:
            rounded = np.round(table, _DISTANCE_DECIMALS)
            ranks = np.unique(rounded, return_inverse=True)[1].astype(np.uint16)

        if model.config.tie_policy is TiePolicy.GLOBAL_CLASS_FREQUENCY:
            pref = sorted(
                model.class_frequencies,
                key=lambda c: (-model.class_frequencies[c], c),
            )
        else:
            pref = sorted(model.class_frequencies)
        label_pos = {c: i for i, c in enumerate(pref)}
        n = len(base)
        # float32 sums of 0/1 products are exact integers below 2**24
        dtype = np.float32 if n < 2**24 else np.float64
        onehot = np.zeros((n, len(pref)), dtype=dtype)
        onehot[np.arange(n), [label_pos[c] for c in base.labels]] = 1
        return _ModelIndex(
            base.codes, base.matrix, head, table, tail, ranks, pref, onehot
        )

    def encode_queries(
        self, queries: Sequence[Sequence[str]] | FeatureColumns
    ) -> np.ndarray:
        """Queries in the model's codes; a value unseen in training is -1,
        which matches nothing.  Coded columns are translated one distinct
        value at a time."""
        q = np.full((len(queries), self.matrix.shape[1]), -1, dtype=np.int32)
        if isinstance(queries, FeatureColumns):
            for i, (own, table) in enumerate(zip(queries.codes, self.codes)):
                lookup = [table.get(v, -1) for v in own]
                q[:, i] = np.array(lookup, dtype=np.int32)[queries.matrix[:, i]]
            return q
        for i, (column, table) in enumerate(zip(zip(*queries), self.codes)):
            q[:, i] = [table.get(v, -1) for v in column]
        return q


def train(
    dataset: InstanceBase | Sequence[Instance], config: LearnerConfig | None = None
) -> Model:
    """Store the dataset and compute its feature weights.

    A sequence of ``Instance`` is coded into an ``InstanceBase`` once; an
    ``InstanceBase`` is stored as it is.  With ``degenerate_weight_fallback``
    on, an all-zero weight table (every weight below 1e-12) is replaced by
    uniform weights so that the overlap metric still discriminates.
    """
    if config is None:
        config = LearnerConfig()
    base = _instance_base(dataset)
    table = gain_ratio_weights(base)
    if config.degenerate_weight_fallback and all(
        w < DEGENERATE_WEIGHT_EPS for w in table.weights
    ):
        table = WeightTable(tuple(1.0 for _ in table.weights))
    return Model(
        instances=base,
        weight_table=table,
        config=config,
        class_frequencies=dict(Counter(base.labels)),
    )


def _check_arity(model: Model, arity: int, index: int):
    if arity != model.arity:
        raise DomainError(
            f"query arity {arity} at index {index} does not match model arity "
            f"{model.arity}"
        )


def _encode(model: Model, queries) -> np.ndarray | None:
    """Checked queries coded against the model, or None when there are none."""
    if isinstance(queries, FeatureColumns):
        if len(queries):
            _check_arity(model, queries.arity, 0)
    else:
        for i, q in enumerate(queries):
            _check_arity(model, len(q), i)
    if not len(queries):
        return None
    return model._index.encode_queries(queries)


def _batch_winner_ids(model: Model, encoded: np.ndarray):
    """Vectorized nearest-distance-set majority vote.

    Yields (winner ids, vote count matrix) per block of queries, the vote
    columns in tie-preference order.  Queries are read-only with respect to
    the model, so callers may evaluate them concurrently.
    """
    idx = model._index
    k = model.config.k
    columns = idx.matrix.T  # arity x n, each feature's column contiguous
    n = columns.shape[1]
    block = max(1, _SCRATCH_BUDGET // (_PAIR_SCRATCH_BYTES * n))
    for lo in range(0, encoded.shape[0], block):
        q = encoded[lo : lo + block]
        ne = np.empty((q.shape[0], n), dtype=bool)
        # mismatch code, one byte of head features at a time, high byte
        # first: bits = 2 * bits + mismatch stays in uint8 with no casting
        code = np.zeros((q.shape[0], n), dtype=np.uint16)
        bits = np.empty((q.shape[0], n), dtype=np.uint8)
        for byte in (idx.head[8:], idx.head[:8]):
            bits.fill(0)
            for i in reversed(byte):
                np.not_equal(q[:, i, None], columns[i], out=ne)
                np.add(bits, bits, out=bits)
                np.add(bits, ne.view(np.uint8), out=bits)
            np.left_shift(code, 8, out=code)
            np.bitwise_or(code, bits, out=code)
        del bits
        if idx.ranks is None:
            dist = idx.table[code]
            del code
            for i, w in idx.tail:
                np.not_equal(q[:, i, None], columns[i], out=ne)
                np.add(dist, w, out=dist, where=ne)
            np.round(dist, _DISTANCE_DECIMALS, out=dist)
            top = np.inf
        else:  # every distance is in the table: select on its rank instead
            # np.take is faster than indexing; no code exceeds the table, so
            # clipping only skips the bounds check
            dist = np.take(idx.ranks, code, mode="clip")
            del code
            top = np.iinfo(np.uint16).max
        # k-th smallest distinct distance; the top value once a row runs out
        # of them, which admits the same instances as its largest would
        threshold = dist.min(axis=1)
        for _ in range(k - 1):
            np.greater(dist, threshold[:, None], out=ne)
            threshold = dist.min(axis=1, initial=top, where=ne)
            if threshold.min() == top:  # every row is out of distances
                break
        np.less_equal(dist, threshold[:, None], out=ne)
        del dist
        votes = ne.astype(idx.onehot.dtype) @ idx.onehot
        yield votes.argmax(axis=1), votes


def classify_labels(
    model: Model, queries: Sequence[Sequence[str]] | FeatureColumns
) -> list[str]:
    """The label of each query, in order, by majority over its k nearest
    distance sets."""
    encoded = _encode(model, queries)
    if encoded is None:
        return []
    labels: list[str] = []
    for winners, _ in _batch_winner_ids(model, encoded):
        labels.extend(model._index.labels_in_pref[w] for w in winners)
    return labels


def classify(model: Model, query: Sequence[str]) -> str:
    """The label of a single query."""
    return classify_labels(model, [query])[0]


# ---------------------------------------------------------------------------
# Persistence: versioned line-oriented text format.

_FORMAT = "knn-model 1"


def _escape(symbol: str) -> str:
    return symbol.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def save_model(model: Model, path) -> None:
    base = model.instances
    lines = [
        _FORMAT,
        f"arity {model.arity}",
        f"k {model.config.k}",
        f"tie-policy {model.config.tie_policy.value}",
        f"fallback {int(model.config.degenerate_weight_fallback)}",
        "weights " + " ".join(repr(w) for w in model.weight_table.weights),
        "classes "
        + "\t".join(
            f"{_escape(c)}\t{n}" for c, n in sorted(model.class_frequencies.items())
        ),
    ]
    # escape each distinct symbol once, then write the rows from their codes
    cells = np.empty((len(base), len(base.codes) + 1), dtype=object)
    for i, table in enumerate(base.codes):
        symbols = np.array([_escape(v) for v in table], dtype=object)
        cells[:, i] = symbols[base.matrix[:, i]]
    labels = {c: _escape(c) for c in dict.fromkeys(base.labels)}
    cells[:, -1] = list(map(labels.__getitem__, base.labels))
    lines.extend(map("\t".join, cells.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Model:
    # only "\n" ends a line: "\r" and the other breaks str.splitlines knows
    # may occur inside symbols, which save_model writes unescaped
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    # fixed header: one line per field, in save order, then instance lines
    fields = ("arity", "k", "tie-policy", "fallback", "weights", "classes")
    lines = text.removesuffix("\n").split("\n", len(fields) + 1)
    body = lines.pop() if len(lines) > 1 + len(fields) else ""
    if lines[0] != _FORMAT:
        raise DomainError(f"{path}: not a {_FORMAT!r} file")
    if len(lines) < 1 + len(fields):
        raise DomainError(f"{path}: truncated header")
    header: dict[str, str] = {}
    for key, line in zip(fields, lines[1:]):
        got, _, rest = line.partition(" ")
        if got != key:
            raise DomainError(f"{path}: expected header field {key!r}, got {got!r}")
        header[key] = rest

    class_fields = header["classes"].split("\t")
    if len(class_fields) % 2 != 0:
        raise DomainError(f"{path}: malformed class-frequency line")
    try:
        arity = int(header["arity"])
        config = LearnerConfig(
            k=int(header["k"]),
            tie_policy=TiePolicy(header["tie-policy"]),
            degenerate_weight_fallback=bool(int(header["fallback"])),
        )
        weights = tuple(float(w) for w in header["weights"].split())
        freqs = {
            _unescape(class_fields[i]): int(class_fields[i + 1])
            for i in range(0, len(class_fields), 2)
        }
    except ValueError as exc:
        raise DomainError(f"{path}: bad header value: {exc}") from None
    if len(weights) != arity:
        raise DomainError(f"{path}: weight line does not match arity")
    if not all(math.isfinite(w) for w in weights):
        raise DomainError(f"{path}: weights must be finite")

    rows = list(filter(None, body.split("\n")))  # blank lines are skipped
    tabs = list(map(str.count, rows, repeat("\t")))
    if arity == 0 and rows and tabs[0] == 0:  # a first row with a label alone
        raise DomainError("instance needs at least one feature")
    if tabs.count(arity) != len(tabs):
        bad = next(t for t in tabs if t != arity)
        raise DomainError(f"{path}: instance line has {bad + 1} fields")
    if not rows:
        raise DomainError(f"{path}: model stores no instances")

    cells = "\t".join(rows).split("\t")
    if "\\" in body:
        cells = list(map(_unescape, cells))
    width = arity + 1
    labels = cells[arity::width]
    if Counter(labels) != freqs:
        raise DomainError(f"{path}: class frequencies do not match the instance labels")
    columns = [cells[i::width] for i in range(arity)]
    return Model(
        instances=InstanceBase.from_columns(columns, labels),
        weight_table=WeightTable(weights),  # stored weights include any fallback
        config=config,
        class_frequencies=freqs,
    )
