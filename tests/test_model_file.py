"""Model files: what ``save_model`` writes, ``load_model`` gives back exactly.

A saved model is a text header plus one 1-D int32 ``.npy`` array file that
the header slices (see ``mbparse.learner``): a bundle's models share one,
a model saved alone has its own.  These tests compare a loaded model with
the one in memory part by part, loads that share a cache with loads alone,
check which files a save leaves, and check that the models of one bundle
load share each stored column and label array.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbparse import bundles, learner
from mbparse.bundles import load_chunker, load_full_parser, save_chunker, save_full_parser
from mbparse.errors import DomainError
from mbparse.learner import (
    ArrayFile,
    InstanceBase,
    LearnerConfig,
    TiePolicy,
    classify_labels,
    load_model,
    save_model,
    train,
)
from mbparse.pipeline import train_chunker, train_full_parser
from mbparse.synth import np_chunk_corpus, parse_corpus
from references import model_parts

# Separators a text format would have to escape, a trailing NUL (which numpy
# "U" arrays drop) and a lone surrogate (which UTF-8 cannot encode).
SYMBOLS = st.text(alphabet="ab \t\n\r\\\x00 \ud800é", max_size=4)


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
    exactly, and every array file is a 1-D little-endian int32 array."""
    model, columns = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        save_model(model, path)
        loaded = load_model(path)
        for name in os.listdir(tmp):
            if name.endswith(".npy"):
                array = np.load(os.path.join(tmp, name), allow_pickle=False)
                assert array.dtype == np.dtype("<i4") and array.ndim == 1
    assert model_parts(loaded) == model_parts(model)
    queries = list(zip(*columns))
    assert classify_labels(loaded, queries) == classify_labels(model, queries)


@st.composite
def shared_files(draw):
    """The feature columns of two model files.  Each column of the second
    file equals one of the first's, agrees with it on a prefix and then
    differs, or is drawn on its own; it may also be cut short."""
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


def write_model(path, columns, arrays=None):
    labels = ["X", "Y"] * (len(columns[0]) // 2) + ["X"] * (len(columns[0]) % 2)
    save_model(train(InstanceBase.from_columns(columns, labels)), path, arrays)


@settings(max_examples=200, deadline=None)
@given(shared_files())
def test_shared_load_matches_solo_loads(files):
    """Two models saved into one array file, as a bundle saves them, and
    loaded with one cache equal their loads alone, whatever columns they
    have in common."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "a.model"), os.path.join(tmp, "b.model")]
        arrays = ArrayFile("arrays.npy")
        for path, columns in zip(paths, files):
            write_model(path, columns, arrays)
        arrays.write(tmp)
        cache = {}
        shared = [load_model(path, cache) for path in paths]
        for model, path in zip(shared, paths):
            assert model_parts(model) == model_parts(load_model(path))


@pytest.mark.parametrize(
    "line, text, message",
    [
        (5, "weights 0.5 -1.0", "weights must not be negative"),
        (6, "classes 3", "class frequencies do not match the instance labels"),
        (8, "columns", "weights or columns do not match arity"),
    ],
)
def test_damaged_file_after_shared_columns_fails_as_alone(tmp_path, line, text, message):
    columns = [list("abcabcab"), list("aabbccaa")]
    write_model(tmp_path / "good.model", columns)
    lines = (tmp_path / "good.model").read_text().split("\n")[:-1]
    lines[line] = text
    (tmp_path / "bad.model").write_text("\n".join(lines) + "\n")
    cache = {}
    load_model(tmp_path / "good.model", cache)
    cached = set(cache)
    for record in ({}, cache, None):
        with pytest.raises(DomainError) as exc:
            load_model(tmp_path / "bad.model", record)
        assert str(exc.value) == f"{tmp_path / 'bad.model'}: {message}"
    assert set(cache) == cached


def test_bundle_models_share_columns_and_label_arrays(tmp_path, monkeypatch):
    """After ``load_chunker`` and ``load_full_parser``, models whose headers
    name the same ``codes:symbols`` entry hold the same array object and
    code table, label and feature columns alike: one array per distinct
    entry, each read on its own from the array file, none a view of a larger
    buffer.  The two passes of each chunker stream share their label array,
    and the open and close models of each cascade level every column."""
    loads = []

    def recording(path, cache=None):
        model = learner.load_model(path, cache)
        loads.append((path, model))
        return model

    monkeypatch.setattr(bundles, "load_model", recording)
    save_chunker(train_chunker(*np_chunk_corpus(200, seed=1)), tmp_path / "chunker")
    streams = load_chunker(tmp_path / "chunker").streams.values()
    models = [m for s in streams for m in (s.pass1_model, s.pass2_model)]
    assert len(models) == 8
    assert len({id(m.instances.label_codes) for m in models}) == 4
    for stream in streams:
        assert stream.pass1_model.instances.label_codes is stream.pass2_model.instances.label_codes
    save_full_parser(train_full_parser(*parse_corpus(30, seed=4)), tmp_path / "parser")
    levels = load_full_parser(tmp_path / "parser").levels
    assert levels
    for level in levels:
        pairs = zip(level.open_model.instances.columns, level.close_model.instances.columns)
        assert all(a is b for a, b in pairs)

    by_bundle = {}
    for path, model in loads:
        by_bundle.setdefault(os.path.dirname(path), []).append((path, model))
    assert len(by_bundle) == 2
    for loaded in by_bundle.values():
        arrays, tables = {}, {}  # entry -> ids of the objects models hold for it
        for path, model in loaded:
            lines = open(path, encoding="utf-8").read().split("\n")
            entries = lines[7].split()[1:] + lines[8].split()[1:]
            base = model.instances
            held = zip(entries, [base.label_codes, *base.columns], [base.classes, *base.codes])
            for entry, array, table in held:
                assert array.base is None
                arrays.setdefault(entry, set()).add(id(array))
                tables.setdefault(entry, set()).add(id(table))
        assert all(len(ids) == 1 for ids in arrays.values())
        assert all(len(ids) == 1 for ids in tables.values())
        assert len(set().union(*arrays.values())) == len(arrays)
        named = sum(1 + m.arity for _, m in loaded)
        assert len(arrays) < named  # some column is stored once for several models


def headers_named(bundle) -> set[str]:
    """The model headers that a bundle's JSON manifest names: the values in
    it that end in ``.model``."""

    def values(data):
        if isinstance(data, (dict, list)):
            return [v for item in (data.values() if isinstance(data, dict) else data)
                    for v in values(item)]
        return [data]

    manifest = json.loads((bundle / "manifest").read_text())
    return {v for v in values(manifest) if isinstance(v, str) and v.endswith(".model")}


@pytest.mark.parametrize("kind", ["chunker", "full parser"])
def test_bundle_holds_manifest_headers_and_one_array_file(kind, tmp_path):
    if kind == "chunker":
        save_chunker(train_chunker(*np_chunk_corpus(30, seed=4)), tmp_path)
        load = load_chunker
    else:
        save_full_parser(train_full_parser(*parse_corpus(30, seed=4)), tmp_path)
        load = load_full_parser
    headers = headers_named(tmp_path)
    assert len(headers) == (8 if kind == "chunker" else 21)
    assert {p.name for p in tmp_path.iterdir()} == {"manifest", "arrays.npy", *headers}
    for name in headers:
        assert (tmp_path / name).read_text().split("\n")[9] == "arrays arrays.npy"
    load(tmp_path)


def test_model_saved_alone_writes_a_header_and_one_array_file(tmp_path):
    write_model(tmp_path / "m.model", [list("abcab"), list("aabba")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.model", "m.model.npy"]
    array = np.load(tmp_path / "m.model.npy", allow_pickle=False)
    assert array.dtype == np.dtype("<i4") and array.ndim == 1
    load_model(tmp_path / "m.model")


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
