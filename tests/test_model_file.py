"""Saved models: what ``save_model`` writes into a bundle, ``load_model``
gives back exactly.

A saved model is an object of its bundle's JSON manifest that names each
code column as a slice of the bundle's one 1-D int32 ``.npy`` array file and
a symbol table of the manifest (see ``mbparse.learner``).  These tests
compare a loaded model with the one in memory part by part and with the
plain values it was built from, loads of models saved together with loads
of each saved alone, check which files a save leaves and a load opens, and
check that the models of one bundle load share each stored column, symbol
table and label array.
"""

import builtins
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbparse import bundles, learner
from mbparse.bundles import load_chunker, load_full_parser, save_chunker, save_full_parser
from mbparse.errors import DomainError
from mbparse.learner import (
    InstanceBase,
    LearnerConfig,
    Model,
    TiePolicy,
    WeightTable,
    classify_labels,
    code_dtype,
    train,
)
from mbparse.pipeline import train_chunker, train_full_parser
from mbparse.synth import np_chunk_corpus, parse_corpus
from references import load_models, model_objects, model_parts, save_models

# The empty string, a quote and a backslash (which JSON escapes), separators
# a text format would have to escape, a NUL (which numpy "U" arrays drop), a
# line separator and lone surrogates (which UTF-8 cannot encode), but no high
# surrogate right before a low one: JSON reads such a pair as one character.
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
SYMBOLS = st.text(alphabet='ab \t\n\r\\"\x00\u2028\ud800\udfffé', max_size=4).filter(
    lambda s: not SURROGATE_PAIR.search(s))


@st.composite
def models(draw):
    arity = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    columns = [draw(st.lists(SYMBOLS, min_size=n, max_size=n)) for _ in range(arity)]
    labels = draw(st.lists(SYMBOLS, min_size=n, max_size=n))
    config = LearnerConfig(
        k=draw(st.integers(1, 4)),
        tie_policy=draw(st.sampled_from(TiePolicy)),
        degenerate_weight_fallback=draw(st.booleans()),
    )
    return train(InstanceBase.from_columns(columns, labels), config), columns


@settings(max_examples=200, deadline=None)
@given(models())
def test_load_of_save_equals_the_model(drawn):
    """Codes, code columns, labels, weights, config and class counts come back
    exactly, and the array file is a 1-D little-endian int32 array."""
    model, columns = drawn
    with tempfile.TemporaryDirectory() as tmp:
        save_models([model], tmp)
        [loaded] = load_models(tmp)
        array = np.load(os.path.join(tmp, "arrays.npy"), allow_pickle=False)
        assert array.dtype == np.dtype("<i4") and array.ndim == 1
    assert model_parts(loaded) == model_parts(model)
    queries = list(zip(*columns))
    assert classify_labels(loaded, queries) == classify_labels(model, queries)


def test_symbol_holding_a_surrogate_pair_is_refused_at_save(tmp_path):
    pair = "x\ud800\udfff"
    model = train(InstanceBase.from_columns([["a", pair]], ["X", "Y"]))
    with pytest.raises(DomainError, match="surrogate pair"):
        save_models([model], tmp_path)


@st.composite
def sharing_models(draw):
    """1 to 3 models built from plain values, and those values: a pool of
    symbol tables and of code columns, each column coded against one table,
    from which every model draws its label column and feature columns, so
    that models share tables and columns, and even one model may name a
    column twice."""
    n = draw(st.integers(1, 8))
    tables = [
        (symbols, {s: code for code, s in enumerate(symbols)})
        for symbols in draw(st.lists(st.lists(SYMBOLS, min_size=1, max_size=5, unique=True),
                                     min_size=1, max_size=4))
    ]
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        symbols, table = draw(st.sampled_from(tables))
        codes = draw(st.lists(st.integers(0, len(symbols) - 1), min_size=n, max_size=n))
        pool.append((symbols, codes, table, np.array(codes, code_dtype(len(table)))))
    plain, built = [], []
    for _ in range(draw(st.integers(1, 3))):
        label, *features = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
        weights = draw(st.lists(st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
                                min_size=len(features), max_size=len(features)))
        counts = np.bincount(label[1], minlength=len(label[0])).tolist()
        config = LearnerConfig(k=draw(st.integers(1, 2**40)),
                               tie_policy=draw(st.sampled_from(TiePolicy)),
                               degenerate_weight_fallback=draw(st.booleans()))
        plain.append((label, features, [w.hex() for w in weights], counts, config))
        built.append(Model(
            instances=InstanceBase(tuple(f[2] for f in features), tuple(f[3] for f in features),
                                   n, label[2], label[3]),
            weight_table=WeightTable(tuple(weights)),
            config=config,
            class_frequencies=dict(zip(label[2], counts)),
        ))
    return plain, built


@settings(max_examples=200, deadline=None)
@given(sharing_models())
def test_models_sharing_tables_and_columns_round_trip(drawn):
    """Each loaded model holds the tables (keys and order), codes, dtypes,
    labels, weight bits, config and class counts it was built from, and
    models that shared a column array or table before the save share one
    object after the load."""
    plain, built = drawn
    with tempfile.TemporaryDirectory() as tmp:
        save_models(built, tmp)
        loaded = load_models(tmp)
    for (label, features, weights, counts, config), model in zip(plain, loaded):
        base = model.instances
        held = [(base.classes, base.label_codes), *zip(base.codes, base.columns)]
        for (symbols, codes, _, _), (table, column) in zip([label, *features], held):
            assert list(table.items()) == [(s, i) for i, s in enumerate(symbols)]
            assert column.dtype == code_dtype(len(symbols)) and column.tolist() == codes
        assert [w.hex() for w in model.weight_table.weights] == weights
        assert list(model.class_frequencies.items()) == list(zip(label[0], counts))
        assert model.config == config and len(base) == len(label[1])
    before = [(m.instances.classes, m.instances.label_codes,
               *m.instances.codes, *m.instances.columns) for m in built]
    after = [(m.instances.classes, m.instances.label_codes,
              *m.instances.codes, *m.instances.columns) for m in loaded]
    objects = [(a, b) for held, got in zip(before, after) for a, b in zip(held, got)]
    for a, b in objects:
        for c, d in objects:
            if a is c:
                assert b is d


@st.composite
def shared_files(draw):
    """The feature columns of two models.  Each column of the second model
    equals one of the first's, agrees with it on a prefix and then differs,
    or is drawn on its own; it may also be cut short."""
    n = draw(st.integers(1, 64))
    cells = st.sampled_from("abc")
    first = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=3))
    m = draw(st.sampled_from([n, draw(st.integers(1, n))]))
    second = []
    for _ in range(draw(st.integers(1, 3))):
        column = draw(st.sampled_from(first))[:m]
        how = draw(st.sampled_from(["equal", "differ", "fresh"]))
        if how == "differ":
            i = draw(st.integers(0, m - 1))
            column = column[:i] + ["z"] + column[i + 1:]
        elif how == "fresh":
            column = draw(st.lists(cells, min_size=m, max_size=m))
        second.append(column)
    return first, second


def trained(columns):
    labels = ["X", "Y"] * (len(columns[0]) // 2) + ["X"] * (len(columns[0]) % 2)
    return train(InstanceBase.from_columns(columns, labels))


@settings(max_examples=200, deadline=None)
@given(shared_files())
def test_shared_load_matches_solo_loads(files):
    """Two models saved into one bundle and loaded together equal their loads
    from bundles of their own, whatever columns they have in common."""
    built = [trained(columns) for columns in files]
    with tempfile.TemporaryDirectory() as tmp:
        save_models(built, tmp)
        shared = load_models(tmp)
        for i, model in enumerate(built):
            save_models([model], os.path.join(tmp, str(i)))
            [alone] = load_models(os.path.join(tmp, str(i)))
            assert model_parts(shared[i]) == model_parts(alone)


# Damage to a model object, and the fault it must be reported as.  The ids
# are those of the text-header damages that these replace.
MODEL_DAMAGE = {
    "5-weights 0.5 -1.0-weights must not be negative": (
        lambda m: m["weights"].__setitem__(-1, -1.0), "weights must not be negative"),
    "6-classes 3-class frequencies do not match the instance labels": (
        lambda m: m.update(counts=[3]), "class frequencies do not match the instance labels"),
    "8-columns-weights or columns do not match arity": (
        lambda m: m["columns"].pop(), "weights and columns differ in number: 2 and 1"),
}


@pytest.mark.parametrize("case", list(MODEL_DAMAGE))
def test_damaged_file_after_shared_columns_fails_as_alone(tmp_path, case):
    """A damaged model whose columns an earlier model of the load has read
    fails as it does in a bundle of its own, naming its place."""
    damage, message = MODEL_DAMAGE[case]
    model = trained([list("abcabcab"), list("aabbccaa")])
    for bundle, models in ((tmp_path / "shared", [model, model]), (tmp_path / "alone", [model])):
        save_models(models, bundle)
        manifest = json.loads((bundle / "manifest").read_text())
        damage(manifest["models"][-1])
        (bundle / "manifest").write_text(json.dumps(manifest))
        with pytest.raises(DomainError) as exc:
            load_models(bundle)
        assert str(exc.value) == f"{bundle}: models.{len(models) - 1}: {message}"


def recording_loads(monkeypatch):
    """The (place, model object, model) of each ``load_model`` call that a
    bundle load makes from here on."""
    loads = []

    def recording(data, place, arrays):
        model = learner.load_model(data, place, arrays)
        loads.append((place, data, model))
        return model

    monkeypatch.setattr(bundles, "load_model", recording)
    return loads


def test_bundle_models_share_columns_and_label_arrays(tmp_path, monkeypatch):
    """After ``load_chunker`` and ``load_full_parser``, models whose objects
    name the same ``[span, table index]`` column hold the same array object
    and code table, label and feature columns alike: one array per distinct
    column, each read on its own from the array file, none a view of a
    larger buffer.  The two passes of each chunker stream share their label
    array, and the open and close models of each cascade level every
    column."""
    save_chunker(train_chunker(*np_chunk_corpus(200, seed=1)), tmp_path / "chunker")
    save_full_parser(train_full_parser(*parse_corpus(30, seed=4)), tmp_path / "parser")
    for name in ("chunker", "parser"):
        loads = recording_loads(monkeypatch)
        if name == "chunker":
            streams = load_chunker(tmp_path / name).streams.values()
            models = [t.model for s in streams for t in (s.pass1, s.pass2)]
            assert len(models) == 8
            assert len({id(m.instances.label_codes) for m in models}) == 4
            for stream in streams:
                assert (stream.pass1.model.instances.label_codes
                        is stream.pass2.model.instances.label_codes)
        else:
            levels = load_full_parser(tmp_path / name).levels
            assert levels
            for level in levels:
                pairs = zip(level.open.model.instances.columns,
                            level.close.model.instances.columns)
                assert all(a is b for a, b in pairs)
        arrays, tables = {}, {}  # column -> ids of the objects models hold for it
        for _, data, model in loads:
            entries = [tuple(data["labels"]), *map(tuple, data["columns"])]
            base = model.instances
            held = zip(entries, [base.label_codes, *base.columns], [base.classes, *base.codes])
            for entry, array, table in held:
                assert array.base is None
                arrays.setdefault(entry, set()).add(id(array))
                tables.setdefault(entry[1], set()).add(id(table))
        assert all(len(ids) == 1 for ids in arrays.values())
        assert all(len(ids) == 1 for ids in tables.values())
        assert len(set().union(*arrays.values())) == len(arrays)
        named = sum(1 + m.arity for _, _, m in loads)
        assert len(arrays) < named  # some column is stored once for several models
        monkeypatch.undo()


@pytest.mark.parametrize("kind", ["chunker", "full parser"])
def test_bundle_holds_manifest_headers_and_one_array_file(kind, tmp_path):
    """A bundle is its manifest, which holds every model, and one array file."""
    if kind == "chunker":
        save_chunker(train_chunker(*np_chunk_corpus(30, seed=4)), tmp_path)
        load = load_chunker
    else:
        save_full_parser(train_full_parser(*parse_corpus(30, seed=4)), tmp_path)
        load = load_full_parser
    manifest = json.loads((tmp_path / "manifest").read_text())
    assert len(list(model_objects(manifest))) == (8 if kind == "chunker" else 21)
    assert {p.name for p in tmp_path.iterdir()} == {"manifest", "arrays.npy"}
    load(tmp_path)


@pytest.mark.parametrize("kind", ["chunker", "full parser"])
def test_bundle_load_opens_two_files_once(kind, tmp_path, monkeypatch):
    """A bundle load opens the manifest and the array file once each, and
    calls ``learner.load_model`` once per model."""
    if kind == "chunker":
        save_chunker(train_chunker(*np_chunk_corpus(30, seed=4)), tmp_path)
        load, models = load_chunker, 8
    else:
        save_full_parser(train_full_parser(*parse_corpus(30, seed=4)), tmp_path)
        load, models = load_full_parser, 21
    loads = recording_loads(monkeypatch)
    opened, real_open = [], builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    load(tmp_path)
    monkeypatch.setattr(builtins, "open", real_open)
    assert sorted(opened) == [str(tmp_path / "arrays.npy"), str(tmp_path / "manifest")]
    assert len(loads) == models


def test_resave_into_a_bundle_directory_keeps_only_named_arrays(tmp_path):
    """A save over an earlier bundle leaves the files a fresh save writes,
    with the same bytes, and leaves files it did not write alone."""
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    save_chunker(train_chunker(*np_chunk_corpus(30, seed=2)), reused)
    (reused / "notes.npy").write_bytes(b"kept")
    chunker = train_chunker(*np_chunk_corpus(30, seed=3))
    save_chunker(chunker, fresh)
    save_chunker(chunker, reused)
    assert sorted(p.name for p in reused.iterdir()) == sorted(
        [p.name for p in fresh.iterdir()] + ["notes.npy"]
    )
    for p in fresh.iterdir():
        assert (reused / p.name).read_bytes() == p.read_bytes()
    assert (reused / "notes.npy").read_bytes() == b"kept"
