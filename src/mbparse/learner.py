"""Instance-based k-NN classification with entropy-normalized feature weights.

Learning stores the training instances verbatim.  A query is compared to
every stored instance with the weighted overlap metric (sum of per-feature
weights over mismatching positions) and labeled by majority vote over the
instances falling in the k nearest *distinct* distance values.

A model keeps its instances integer-coded column by column, its classes
too, from the moment it is trained or loaded (``InstanceBase``): one 1-D
code array per feature, which the models built from one coded corpus
(``features.CodedCorpus``) or loaded from one bundle share rather than copy.  Training takes an
``InstanceBase`` as it is, or codes a sequence of ``Instance`` once,
checking their arity on the way; the gain-ratio weights are tabulated from
the codes (value and (value, class) counts), with every entropy summing its
terms in the order a walk down the rows would.  ``classify_labels`` is the
one batch entry point, and ``classify`` labels a single query through it.
Queries come as feature tuples or as ``FeatureColumns``, whose distinct
values are translated into the model's codes; symbols are strings only
there and when a model is decoded.

A saved model is an object of its bundle's JSON manifest (see ``bundles``):
config, weights, the class counts in code order, and each column as an
``offset,length`` slice of the bundle's one 1-D little-endian int32 ``.npy``
array file plus the index of its symbol table, a list of strings in the
manifest.  A save stores each distinct column and table once, found by
identity before by value, so the models of a bundle share one file and the
columns and tables they have in common.  A load opens the file once, reads
and checks its ``.npy`` header (dtype, shape, file size), decodes each table
once, then reads each distinct column once through that handle into an
array of its own; it checks each slice's bounds, each distinct column's
code range and the class counts, and codes nothing again.  The whole file
is never in memory, and the models of one load share each symbol table,
code column and label array.

Codes are as narrow as their tables allow (``code_dtype``): uint8 up to
255 symbols, uint16 up to 65,535, int32 past that, in memory; a saved model
stores them as int32.  Queries are coded per feature in the column's dtype,
a value the table lacks as the table size, so every compare is like with
like.  The query kernel codes which of the first 18 weighted features
mismatch as one integer per (query, instance) pair, a byte at a time: a
uint16 up to 16 features, a uint32 past that.  A table holds every subset's
weight sum, built in feature order so that each entry is the left-to-right
sum a plain loop over the features would make.  When no weighted feature
falls past the table, the kernel gathers each pair's rank among the table's
distinct rounded distances, in the code's dtype, and selects on ranks;
otherwise (19 or more weighted features) it gathers float64 distances, adds
the further features one column at a time and rounds.  The k nearest
distinct distances are found by k row-minimum passes instead of a sort (on
ranks, a pass takes the plain minimum of the ranks minus one more than the
last one found, which wraps the ranks already passed to the top of the
dtype), and the votes are one exact matrix product of the in-range mask
with the labels' one-hot matrix; the kernel yields each block's winning
label ids and vote counts.
Queries run in blocks of as many as fit a 2 MiB scratch budget, about the
size of a core's L2 cache, at 17 bytes per (query, instance) pair, and of
at least one.  So from about 123,000 instances on a block holds a single
query, whose scratch outgrows the budget: 3.4 MB at 200,000 instances.
"""

from __future__ import annotations

import math
import os
import re
import tokenize
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError

# Reserved out-of-vocabulary symbol for positions outside a sentence.
PAD = "__"

# Weights all below this threshold count as a degenerate (all-zero) table.
DEGENERATE_WEIGHT_EPS = 1e-12

# Distances equal after rounding to this many decimals share a distance set.
_DISTANCE_DECIMALS = 9

# Weighted features whose mismatches are coded into one integer per pair (a
# uint16 up to 16 of them, a uint32 past that) and summed by table lookup;
# any further weighted feature is added column-wise.  On a 2-core Xeon, the
# index of 18 features builds in about 16 ms (mostly the sort of its 2**18
# entries) and saves about 80 us per query against 5,000 instances over the
# column-wise path; at 19 the build takes about 60 ms and pays off only
# after about 1,200 such queries.
_TABLE_FEATURES = 18

# Most scratch bytes the kernel holds at once per (query, instance) pair of a
# block: the bool mismatch mask, the code (up to a uint32), and np.take's intp
# copy of the code with the ranks it gathers, the code's dtype.  Building the
# code (mask, code and one uint8 byte of bits: 1 + 4 + 1), the float64
# distances of the other path (1 + 4 + 8) and the float32 copy of the vote
# mask (1 + 4) take less.
_PAIR_SCRATCH_BYTES = 1 + 4 + 8 + 4

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


def code_dtype(symbols: int) -> np.dtype:
    """The narrowest of uint8, uint16 and int32 that holds every code
    0 .. ``symbols`` of a table of that many symbols: the table size itself
    is the code of a value the table lacks, which no stored code equals."""
    if symbols < 2**8:
        return np.dtype(np.uint8)
    if symbols < 2**16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def code_column(column: Sequence[str]) -> tuple[dict[str, int], np.ndarray]:
    """A column's symbols, coded in order of first occurrence, and its codes
    in the ``code_dtype`` of the table."""
    table = {v: code for code, v in enumerate(dict.fromkeys(column))}
    codes = np.fromiter(map(table.__getitem__, column), code_dtype(len(table)), len(column))
    return table, codes


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Feature vectors stored column by column, integer-coded.

    ``codes[i]`` maps each value of feature i to its code, numbered in order
    of first occurrence down the column and kept in code order;
    ``columns[i]`` holds every row's code of feature i, a 1-D array in the
    ``code_dtype`` of its table (uint8, uint16 or int32; a saved model
    stores every column as int32).
    Tables built from one coded corpus or one bundle load share each column
    array they have in common.  ``rows`` counts the rows, which a table
    without features has too.
    """

    codes: tuple[dict[str, int], ...]
    columns: tuple[np.ndarray, ...]
    rows: int

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.rows


@dataclass(frozen=True, eq=False)
class InstanceBase(FeatureColumns):
    """Training instances: coded feature columns plus every row's class,
    coded the same way: ``classes`` maps each class to its code and
    ``label_codes`` holds each row's, in the ``code_dtype`` of ``classes``."""

    classes: dict[str, int]
    label_codes: np.ndarray

    @staticmethod
    def from_columns(columns: Sequence[Sequence[str]], labels: Sequence[str]) -> "InstanceBase":
        """Code each column, and the labels, in order of first occurrence."""
        coded = [code_column(column) for column in columns]
        return InstanceBase(
            tuple(t for t, _ in coded),
            tuple(c for _, c in coded),
            len(labels),
            *code_column(labels),
        )

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
    them and the weights equal those of that walk to the last bit.  The
    (value, class) pairs are counted in a dense table when it has at most n
    cells, and sorted out with ``np.unique`` only when it would be larger.
    """
    base = _instance_base(dataset)
    n = len(base)
    n_labels = len(base.classes)
    y = base.label_codes.astype(np.int64)
    h_class = _entropy(np.bincount(y).tolist(), n)
    weights = []
    for column in base.columns:
        value_counts = np.bincount(column).tolist()
        h_value = _entropy(value_counts, n)
        if h_value == 0.0:
            weights.append(0.0)  # constant feature carries no information
            continue
        keys = column * np.int64(n_labels) + y
        cells = len(value_counts) * n_labels
        if cells <= n:
            counts = np.bincount(keys, minlength=cells)
            pairs = np.flatnonzero(counts)
            first = np.full(cells, n)
            np.minimum.at(first, keys, np.arange(n))
            first, counts = first[pairs], counts[pairs]
        else:
            pairs, first, counts = np.unique(keys, return_index=True, return_counts=True)
        values = pairs // n_labels
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
    """An immutable trained classifier; safe to share across workers."""

    instances: InstanceBase
    weight_table: WeightTable
    config: LearnerConfig
    class_frequencies: Mapping[str, int]

    @property
    def arity(self) -> int:
        return len(self.weight_table.weights)

    @cached_property
    def _index(self) -> "_ModelIndex":
        return _ModelIndex.build(self)


class _ModelIndex:
    """What the distance kernel derives from a model's weights and labels."""

    def __init__(self, head, code_dtype, table, tail, ranks, labels_in_pref, onehot):
        self.head = head                # features coded into the mismatch table
        self.code_dtype = code_dtype    # uint16 mismatch codes, uint32 past 16
        self.table = table              # float64 distance by code; None on ranks
        self.tail = tail                # (feature, weight) added past the table
        self.ranks = ranks              # code_dtype rank of each rounded entry
        self.labels_in_pref = labels_in_pref  # labels, tie-preference order
        self.onehot = onehot            # n x n_labels 0/1 float vote matrix

    @staticmethod
    def build(model: "Model") -> "_ModelIndex":
        base = model.instances
        weights = model.weight_table.weights
        weighted = [i for i, w in enumerate(weights) if w != 0.0]
        head = weighted[:_TABLE_FEATURES]
        code_dtype = np.dtype(np.uint16 if len(head) <= 16 else np.uint32)
        # bit j of a code is head feature j, so each doubling in feature
        # order sums every subset's weights left to right
        table = np.zeros(2 ** len(head))
        for j, i in enumerate(head):
            np.add(table[: 2**j], weights[i], out=table[2**j : 2 ** (j + 1)])
        tail = [(i, weights[i]) for i in weighted[_TABLE_FEATURES:]]
        ranks = None
        if not tail:
            ranks, table = _ranks(table, code_dtype), None

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
        pos = np.array([label_pos[c] for c in base.classes], dtype=np.intp)
        onehot[np.arange(n), pos[base.label_codes]] = 1
        return _ModelIndex(head, code_dtype, table, tail, ranks, pref, onehot)


def _ranks(table: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Each entry's rank among the table's distinct rounded values, in
    ``dtype``, rounding ``table`` in place: equal rounded distances share a
    rank, and ranks keep their order.  One sort and a running count of the
    changes along it give what ``np.unique``'s inverse would."""
    np.round(table, _DISTANCE_DECIMALS, out=table)
    order = np.argsort(table)
    ascending = table[order]
    changes = np.zeros(len(table), dtype)
    np.cumsum(ascending[1:] != ascending[:-1], dtype=dtype, out=changes[1:])
    del ascending
    ranks = np.empty(len(table), dtype)
    ranks[order] = changes
    return ranks


def _encode_queries(
    base: FeatureColumns, queries: Sequence[Sequence[str]] | FeatureColumns
) -> list[np.ndarray]:
    """Queries in the codes of ``base``: one array per feature, in that
    column's dtype, so that the kernel compares like with like.  A value
    unseen there codes as the size of the feature's table, which no stored
    code equals.  Coded columns are translated one distinct value at a
    time."""
    if isinstance(queries, FeatureColumns):
        return [
            np.fromiter((table.get(v, len(table)) for v in own), column.dtype, len(own))[codes]
            for own, codes, table, column in zip(
                queries.codes, queries.columns, base.codes, base.columns
            )
        ]
    return [
        np.fromiter((table.get(v, len(table)) for v in values), column.dtype, len(values))
        for values, table, column in zip(zip(*queries), base.codes, base.columns)
    ]


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
    counts = np.bincount(base.label_codes, minlength=len(base.classes)).tolist()
    return Model(base, table, config, dict(zip(base.classes, counts)))


def _check_arity(model: Model, arity: int, index: int):
    if arity != model.arity:
        raise DomainError(
            f"query arity {arity} at index {index} does not match model arity "
            f"{model.arity}"
        )


def _encode(model: Model, queries) -> list[np.ndarray] | None:
    """Checked queries coded against the model, or None when there are none."""
    if isinstance(queries, FeatureColumns):
        if len(queries):
            _check_arity(model, queries.arity, 0)
    else:
        for i, q in enumerate(queries):
            _check_arity(model, len(q), i)
    if not len(queries):
        return None
    return _encode_queries(model.instances, queries)


def _batch_winner_ids(model: Model, encoded: list[np.ndarray]):
    """Vectorized nearest-distance-set majority vote.

    Yields (winner ids, vote count matrix) per block of queries, the vote
    columns in tie-preference order.  Queries are read-only with respect to
    the model, so callers may evaluate them concurrently.
    """
    idx = model._index
    k = model.config.k
    columns = model.instances.columns
    n = len(model.instances)
    # the head's bytes, high byte first
    head_bytes = [idx.head[j : j + 8] for j in range(0, len(idx.head), 8)][::-1]
    block = max(1, _SCRATCH_BUDGET // (_PAIR_SCRATCH_BYTES * n))
    for lo in range(0, len(encoded[0]), block):
        q = [column[lo : lo + block, None] for column in encoded]
        b = len(q[0])
        ne = np.empty((b, n), dtype=bool)
        # mismatch code, one byte of head features at a time: the byte's
        # top feature goes in as 0/1, then bits = 2 * bits + mismatch stays
        # in uint8 with no casting
        code = np.zeros((b, n), dtype=idx.code_dtype)
        bits = np.empty((b, n), dtype=np.uint8)
        for j, byte in enumerate(head_bytes):
            top, *rest = reversed(byte)
            np.not_equal(q[top], columns[top], out=bits.view(bool))
            for i in rest:
                np.not_equal(q[i], columns[i], out=ne)
                np.add(bits, bits, out=bits)
                np.add(bits, ne.view(np.uint8), out=bits)
            if j:
                np.left_shift(code, 8, out=code)
                np.bitwise_or(code, bits, out=code)
            else:
                np.copyto(code, bits)
        del bits
        if idx.ranks is None:
            dist = idx.table[code]
            del code
            for i, w in idx.tail:
                np.not_equal(q[i], columns[i], out=ne)
                np.add(dist, w, out=dist, where=ne)
            np.round(dist, _DISTANCE_DECIMALS, out=dist)
            top = np.inf
        else:  # every distance is in the table: select on its rank instead
            # np.take is faster than indexing; no code exceeds the table, so
            # clipping only skips the bounds check
            dist = np.take(idx.ranks, code, mode="clip")
            top = np.iinfo(code.dtype).max  # code stays, as scratch below
            one = code.dtype.type(1)
        # k-th smallest distinct distance; the top value once a row runs out
        # of them, which admits the same instances as its largest would
        threshold = dist.min(axis=1)
        for _ in range(k - 1):
            if idx.ranks is None:
                np.greater(dist, threshold[:, None], out=ne)
                threshold = dist.min(axis=1, initial=top, where=ne)
            else:
                # rank - (threshold + 1), unsigned, maps the ranks above the
                # threshold to 0 .. top - 1 - threshold and wraps the others
                # past them, so a plain minimum finds the next rank; a row
                # at the top stays there
                np.subtract(dist, threshold[:, None] + one, out=code)
                above = code.min(axis=1) + threshold.astype(np.int64) + 1
                threshold = np.minimum(above, top).astype(code.dtype)
            if threshold.min() == top:  # every row is out of distances
                break
        code = None  # the rank path's scratch
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
# Persistence: a model as an object of a bundle's JSON manifest, whose code
# columns are slices of the bundle's one .npy array file.

_INT32 = np.dtype("<i4")

# a high surrogate right before a low one, which JSON reads back as one
# character
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a real number", bool: "a boolean", type(None): "null"}


def json_value(data, kind: type):
    """``data``, if it is a JSON value of type ``kind``: a boolean is no
    integer here, and an integer no real number."""
    if type(data) is not kind:
        raise ValueError(f"expected {_JSON_NAMES[kind]}, got {_JSON_NAMES[type(data)]}")
    return data


class BundleStore:
    """What one bundle save stores besides the manifest's own fields: each
    distinct code column once, bound for one 1-D little-endian int32 ``.npy``
    file, and each distinct symbol table once, for the manifest, each in the
    order first put.  An array or table put again is found by identity;
    arrays of equal values are one whatever their dtype, and tables of the
    same symbols in the same order are one.  It holds the arrays it is given,
    not copies, until it writes them as int32 one at a time."""

    def __init__(self):
        self.arrays: list[np.ndarray] = []  # each distinct array, in file order
        # hash of an array's int32 bytes -> (array, offset) of each put with it
        self.found: dict[int, list[tuple[np.ndarray, int]]] = {}
        self.size = 0
        self.symbols: list[tuple[str, ...]] = []  # each distinct table's symbols
        self.tables: dict[tuple[str, ...], int] = {}  # symbols -> index in ``symbols``
        # id of each array or table put -> (it, its span or index); holding
        # it keeps the id from passing to another object
        self.known: dict[int, tuple[object, str | int]] = {}

    def put(self, array: np.ndarray) -> str:
        """Where the array's values lie in the file, as ``offset,length``."""
        if id(array) not in self.known:
            same = self.found.setdefault(hash(np.asarray(array, _INT32).tobytes()), [])
            offset = next((at for stored, at in same if np.array_equal(stored, array)), None)
            if offset is None:
                offset = self.size
                same.append((array, offset))
                self.arrays.append(array)
                self.size += len(array)
            self.known[id(array)] = array, f"{offset},{len(array)}"
        return self.known[id(array)][1]

    def table(self, table: Mapping[str, int]) -> int:
        """The index in ``symbols`` of the table's symbols, in code order."""
        if id(table) not in self.known:
            symbols = tuple(table)
            index = self.tables.setdefault(symbols, len(self.symbols))
            if index == len(self.symbols):
                paired = _SURROGATE_PAIR.search("\x00".join(symbols))
                if paired:
                    raise DomainError(f"cannot save the surrogate pair {paired[0]!r} of a symbol")
                self.symbols.append(symbols)
            self.known[id(table)] = table, index
        return self.known[id(table)][1]

    def write(self, path) -> None:
        header = {"descr": _INT32.str, "fortran_order": False, "shape": (self.size,)}
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for array in self.arrays:
                fh.write(np.ascontiguousarray(array, _INT32))


def save_model(model: Model, store: BundleStore) -> dict:
    """The model as an object of a bundle's manifest; its code columns and
    symbol tables go to ``store``, and the object names each column as its
    ``[span, table index]``."""
    base = model.instances

    def column(table, codes) -> list:
        return [store.put(codes), store.table(table)]

    return {
        "k": model.config.k,
        "tie_policy": model.config.tie_policy.value,
        "fallback": model.config.degenerate_weight_fallback,
        "weights": list(model.weight_table.weights),
        "counts": [model.class_frequencies[c] for c in base.classes],
        "labels": column(base.classes, base.label_codes),
        "columns": list(map(column, base.codes, base.columns)),
    }


# readers of the .npy header versions that numpy writes
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


class BundleReader:
    """What one bundle load reads besides the manifest's own fields: each
    symbol table of the manifest's ``symbols``, decoded once, and the
    bundle's array file through ``fh``, a handle open for the load, its
    ``.npy`` header read and checked (dtype, shape, file size) once.  Each
    distinct column, a ``[span, table index]`` pair, is read through that
    handle and its codes checked against the table once, so models that name
    the same column or table share one array or dict.  The whole file is
    never in memory.  A fault is a ``DomainError`` that names the bundle."""

    def __init__(self, bundle, symbols: list, fh):
        self.bundle, self.path, self.fh = bundle, fh.name, fh
        self.tables = [self._table(i, s) for i, s in enumerate(symbols)]
        self.columns: dict[tuple[str, int], tuple[dict[str, int], np.ndarray]] = {}
        try:
            read_header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if read_header is None:
                raise ValueError("unsupported .npy version")
            shape, _, dtype = read_header(fh)
        # what numpy's header reader raises on a damaged header
        except (ValueError, EOFError, OverflowError, MemoryError, tokenize.TokenError) as exc:
            raise DomainError(
                f"{self.path}: unreadable array: {' '.join(str(exc).split())}"
            ) from None
        if dtype != _INT32 or len(shape) != 1:
            raise DomainError(f"{self.path}: not a 1-D little-endian int32 array")
        self.start, self.size = fh.tell(), shape[0]
        size = os.fstat(fh.fileno()).st_size
        if size != self.start + _INT32.itemsize * self.size:
            raise DomainError(
                f"{self.path}: holds {size - self.start} bytes for {self.size} values"
            )

    def fault(self, place: str, what: str) -> DomainError:
        return DomainError(f"{self.bundle}: {place}: {what}")

    def _table(self, index: int, symbols) -> dict[str, int]:
        place = f"symbols.{index}"
        if type(symbols) is not list:
            raise self.fault(place, "is not an array of symbols")
        if not {*map(type, symbols)} <= {str}:
            raise self.fault(place, "holds a symbol that is not a string")
        table = dict(zip(symbols, range(len(symbols))))
        if len(table) != len(symbols):
            raise self.fault(place, "repeats a symbol")
        return table

    def column(self, place: str, entry) -> tuple[dict[str, int], np.ndarray]:
        """The symbol table and codes that a model at ``place`` names as the
        ``[span, table index]`` pair ``entry``.  The codes are checked as
        int32 and kept in the table's ``code_dtype``."""
        if type(entry) is not list or len(entry) != 2 or (
            type(entry[0]) is not str or type(entry[1]) is not int
        ):
            raise self.fault(place, f"column {entry!r} is not a [span, table index] pair")
        span, index = key = tuple(entry)
        if key not in self.columns:
            if not 0 <= index < len(self.tables):
                raise self.fault(place, f"names symbol table {index} of {len(self.tables)}")
            table = self.tables[index]
            codes = self._read(place, span)
            if len(codes) and (codes.min() < 0 or codes.max() >= len(table)):
                raise self.fault(
                    place, f"column {span} of {self.path} holds a code out of range of its "
                    "symbol table"
                )
            self.columns[key] = table, codes.astype(code_dtype(len(table)), copy=False)
        return self.columns[key]

    def _read(self, place: str, span: str) -> np.ndarray:
        """The values at ``span``, an ``offset,length`` pair, read through
        the open file into an array of their own."""
        offset, _, length = span.partition(",")
        try:
            begin, end = int(offset), int(offset) + int(length)
        except ValueError:
            raise self.fault(place, f"{span!r} is not an offset,length pair") from None
        if not 0 <= begin <= end <= self.size:
            raise self.fault(
                place, f"values {span} lie outside the {self.size} values of {self.path}"
            )
        out = np.empty(end - begin, _INT32)
        self.fh.seek(self.start + _INT32.itemsize * begin)
        if self.fh.readinto(out) != out.nbytes:
            raise DomainError(f"{self.path}: unreadable array: ends early")
        return out


def load_model(data, place: str, arrays: BundleReader) -> Model:
    """The model that ``save_model`` wrote as ``data``, the object at
    ``place`` in the manifest, its columns read through ``arrays``."""
    try:
        json_value(data, dict)
        config = LearnerConfig(
            k=json_value(data["k"], int),
            tie_policy=TiePolicy(json_value(data["tie_policy"], str)),
            degenerate_weight_fallback=json_value(data["fallback"], bool),
        )
        weights = tuple(json_value(w, float) for w in json_value(data["weights"], list))
        counts = [json_value(c, int) for c in json_value(data["counts"], list)]
        entries, labels = json_value(data["columns"], list), data["labels"]
    except KeyError as exc:
        raise arrays.fault(place, f"lacks {exc}") from None
    except ValueError as exc:  # a LearnerConfig's DomainError too
        raise arrays.fault(place, f"bad value: {exc}") from None
    unread = data.keys() - {"k", "tie_policy", "fallback", "weights", "counts", "labels", "columns"}
    if unread:
        raise arrays.fault(place, f"Model has no field {min(unread)!r}")
    if not entries:
        raise arrays.fault(place, "instance needs at least one feature")
    if len(weights) != len(entries):
        raise arrays.fault(
            place, f"weights and columns differ in number: {len(weights)} and {len(entries)}"
        )
    if not all(math.isfinite(w) for w in weights):
        raise arrays.fault(place, "weights must be finite")
    if any(w < 0 for w in weights):
        raise arrays.fault(place, "weights must not be negative")

    classes, label_codes = arrays.column(place, labels)
    n = len(label_codes)
    if not n:
        raise arrays.fault(place, "model stores no instances")
    if np.bincount(label_codes, minlength=len(classes)).tolist() != counts:
        raise arrays.fault(place, "class frequencies do not match the instance labels")
    codes, columns = zip(*(arrays.column(place, entry) for entry in entries))
    for (span, _), column in zip(entries, columns):
        if len(column) != n:
            raise arrays.fault(
                place, f"column {span} holds {len(column)} codes for {n} instances"
            )
    return Model(
        instances=InstanceBase(codes, columns, n, classes, label_codes),
        weight_table=WeightTable(weights),  # stored weights include any fallback
        config=config,
        class_frequencies=dict(zip(classes, counts)),
    )
