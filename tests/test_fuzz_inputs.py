"""Randomly damaged inputs end cleanly through ``main``'s error mapping.

Each example copies a small trained bundle, its input corpus and a config
file, damages one of them (either file of the bundle: the manifest or its
``.npy`` array file; the manifest alone; the corpus or the config) and runs
the command that reads it.  The damage is one of:
truncation, deleting or duplicating a line, swapping two bytes, inserting a
byte that is not UTF-8, or setting one field to an empty, huge or negative
value.  The run must end with exit status 1 or 2 and exactly one line on
standard error, never a traceback; a damaged input that is still valid
(say, a deleted corpus line) may instead succeed with nothing on standard
error, or with one ``warning:`` line (say, a config left with an even
number of representations).

Targeted cases damage the bundle's one array file (a wrong dtype or shape,
a code out of range, a pickled, missing, misplaced or non-``.npy`` file) or
a model object's slices of it, weights, class counts or ``k``; each ends
with exit status 1 and one ``error:`` line naming the file or model at
fault.  A stored code equal to its table size, the code of an
unseen query value, ends the same way at the uint8 and uint16 limits.
A bracket column that does not parse ends in one ``i/o error:`` line naming
the corpus file and the line of the offending cell.
"""

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbparse.bundles import load_chunker
from mbparse.cli import main, run_command
from mbparse.corpus import write_corpus
from mbparse.schemes import ChunkSpan, Scheme, encode
from mbparse.synth import np_chunk_corpus

MODEL = "streams.IOB1.pass1.model"  # the IOB1 stream's first-pass model

CONFIG = """[run]
workers = 1

[learner]
k = 3
tie_policy = global_class_frequency
fallback = true

[chunker]
representations = IOB1 IOE2 O+C
pass1.IOB1 = w[-2..0] p[-2..2]
pass2.IOB1 = w[-1..0] p[-2..1] c[-1,1]

[parser]
k = 1
max_levels = 19

[eval]
beta = 1
"""


def write_chunk_corpus(path, n, seed):
    sentences, gold = np_chunk_corpus(n, seed=seed)
    rows = [
        [(t.word, t.pos, tag) for t, tag in zip(s, encode(g, Scheme.IOB1, len(s), typed=False))]
        for s, g in zip(sentences, gold)
    ]
    write_corpus(rows, path, columns=("word", "pos", "chunk"))


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A trained np-chunk bundle, a training and a test corpus, a config."""
    d = tmp_path_factory.mktemp("fuzz")
    write_chunk_corpus(d / "train.txt", 8, seed=90)
    write_chunk_corpus(d / "test.txt", 3, seed=91)
    (d / "run.ini").write_text(CONFIG, encoding="utf-8")
    assert run_command(["train", "--task", "np-chunk", "--train", str(d / "train.txt"),
                        "--model", str(d / "model"), "--workers", "1"]) == 0
    return d


def main_exit(argv):
    """Exit status and standard-error lines of ``main`` run on ``argv``."""
    err = io.StringIO()
    saved = sys.argv
    sys.argv = ["mbparse", *argv]
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            main()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.argv = saved
    return code, err.getvalue().splitlines()


def mutate(data: bytes, draw) -> bytes:
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "swap", "non-utf8",
                                 "field"]), label="mutation")
    if kind == "truncate":
        return data[: draw(st.integers(0, max(0, len(data) - 1)), label="keep")]
    if kind == "swap":
        i = draw(st.integers(0, len(data) - 1), label="i")
        j = draw(st.integers(0, len(data) - 1), label="j")
        out = bytearray(data)
        out[i], out[j] = out[j], out[i]
        return bytes(out)
    if kind == "non-utf8":
        i = draw(st.integers(0, len(data)), label="at")
        return data[:i] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + data[i:]
    lines = data.split(b"\n")
    n = draw(st.integers(0, len(lines) - 1), label="line")
    if kind == "delete":
        del lines[n]
    elif kind == "duplicate":
        lines.insert(n, lines[n])
    else:  # set one field of the line to an empty, huge or negative value
        parts = re.split(rb"(\s*=\s*|\t| )", lines[n])
        f = 2 * draw(st.integers(0, len(parts) // 2), label="field")
        parts[f] = draw(st.sampled_from([b"", b"9" * 30, b"-1"]), label="value")
        lines[n] = b"".join(parts)
    return b"\n".join(lines)


def run_on_copy(originals, dest, name, damage):
    """Copy the inputs into ``dest``, apply ``damage`` to the bytes of
    ``name`` (None deletes the file) and run the command that reads it:
    ``train`` for the config, ``chunk`` for anything else."""
    shutil.copytree(originals / "model", dest / "model")
    for copied in ("train.txt", "test.txt", "run.ini"):
        shutil.copy(originals / copied, dest / copied)
    path = dest / name
    data = damage(path.read_bytes())
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)
    if name == "run.ini":
        return main_exit(["train", "--task", "np-chunk", "--train", str(dest / "train.txt"),
                          "--model", str(dest / "retrained"), "--config", str(path),
                          "--workers", "1"])
    return main_exit(["chunk", "--model", str(dest / "model"), "--input",
                      str(dest / "test.txt"), "--output", str(dest / "out.txt"),
                      "--workers", "1"])


@pytest.mark.parametrize("target", ["model file", "manifest", "corpus", "config"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_input_ends_in_one_line(originals, target, data):
    if target == "model file":
        models = sorted(p.name for p in (originals / "model").iterdir())
        name = "model/" + data.draw(st.sampled_from(models), label="file")
    else:
        name = {"manifest": "model/manifest", "corpus": "test.txt", "config": "run.ini"}[target]
    with tempfile.TemporaryDirectory() as tmp:
        code, lines = run_on_copy(originals, Path(tmp), name, partial(mutate, draw=data.draw))
    if code == 0:
        assert len(lines) <= 1 and all(line.startswith("warning: ") for line in lines), lines
    else:
        assert code in (1, 2), lines
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: " if code == 1 else "i/o error: "), lines


def edited_run(originals, tmp_path, name, line, text):
    """``run_on_copy`` with line ``line`` of ``name`` replaced by ``text``."""

    def edit(data):
        lines = data.decode("utf-8").split("\n")
        lines[line] = text
        return "\n".join(lines).encode("utf-8")

    return run_on_copy(originals, tmp_path, name, edit)


def iob1_model(manifest: dict) -> dict:
    """The IOB1 stream's first-pass model object in a manifest's data."""
    return manifest["streams"]["IOB1"]["pass1"]["model"]


def model_run(originals, tmp_path, change):
    """``run_on_copy`` with ``change`` applied to the manifest's data."""

    def edit(data):
        manifest = json.loads(data)
        change(manifest)
        return json.dumps(manifest).encode("utf-8")

    return run_on_copy(originals, tmp_path, "model/manifest", edit)


def test_label_missing_from_class_line_is_one_error_line(originals, tmp_path):
    # a class the counts lack, at the same total, once ended in a KeyError
    # traceback when the index was built
    def move(manifest):
        counts = iob1_model(manifest)["counts"]
        counts[:] = [counts[0] + counts[-1]] + counts[1:-1]

    code, lines = model_run(originals, tmp_path, move)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0].endswith(f"{MODEL}: class frequencies do not match the instance labels")


def test_negative_weight_in_model_file_is_one_error_line(originals, tmp_path):
    # a negative weight once loaded, and made a mismatch bring an instance nearer
    code, lines = model_run(originals, tmp_path,
                            lambda m: iob1_model(m)["weights"].__setitem__(0, -5.0))
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0].endswith(f"{MODEL}: weights must not be negative")


def test_unparsable_config_is_one_error_line(originals, tmp_path):
    # configparser's messages span several lines
    code, lines = edited_run(originals, tmp_path, "run.ini", 0, "[")
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_huge_k_in_model_file_still_tags(originals, tmp_path):
    # one selection pass per k once ran until k, whatever the distances
    code, lines = model_run(originals, tmp_path, lambda m: iob1_model(m).update(k=int("9" * 30)))
    assert (code, lines) == (0, [])


def npy(array, allow_pickle=False) -> bytes:
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def replaced(data: bytes, change) -> bytes:
    """An ``.npy`` file's bytes with its array changed."""
    return npy(change(np.load(io.BytesIO(data)).copy()))


def set_code(value):
    """Damage that sets the value at ``at``, a column's first code."""
    def damage(data, at):
        array = np.load(io.BytesIO(data)).copy()
        array[at] = value
        return npy(array)
    return damage


# Damage to the bundle's array file; ``at`` is where a column's codes begin.
ARRAY_DAMAGE = {
    "truncated": lambda data, at: data[: len(data) - 3],
    "int64": lambda data, at: replaced(data, lambda a: a.astype(np.int64)),
    "float32": lambda data, at: replaced(data, lambda a: a.astype(np.float32)),
    "2-D": lambda data, at: replaced(data, lambda a: a.reshape(1, -1)),
    "wrong length": lambda data, at: replaced(data, lambda a: a[:-1]),
    "negative code": set_code(-1),
    "code out of range": set_code(2**30),
    "missing": lambda data, at: None,
    "pickled object array": lambda data, at: npy(
        np.array([{"a": 1}, None], dtype=object), allow_pickle=True
    ),
}


def first_column(originals) -> list:
    """The IOB1 stream's first-pass model's first feature column, as its
    ``[span, table index]`` pair."""
    return iob1_model(json.loads((originals / "model" / "manifest").read_text()))["columns"][0]


@pytest.mark.parametrize("case", list(ARRAY_DAMAGE))
def test_damaged_array_file_is_one_error_line_naming_it(originals, tmp_path, case):
    span = first_column(originals)[0]  # offset,length
    damage = partial(ARRAY_DAMAGE[case], at=int(span.split(",")[0]))
    code, lines = run_on_copy(originals, tmp_path, "model/arrays.npy", damage)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(tmp_path / "model" / "arrays.npy") in lines[0], lines


def span_damage(change):
    """Damage to the span of the first feature column of the IOB1 stream's
    first-pass model: ``change(offset, length)`` gives the new span."""
    def damage(manifest):
        column = iob1_model(manifest)["columns"][0]
        column[0] = change(*column[0].split(","))
    return damage


def misplaced(tmp_path, data):
    """Damage that moves the array file out of the bundle, beside it."""
    (tmp_path / "arrays.npy").write_bytes(data)


# Damage to the IOB1 stream's first-pass model object or to the bundle's
# array file: (the file damaged, its damage, the text the error line must
# hold: the model's place or the array file).
HEADER_DAMAGE = {
    "negative offset": ("manifest", span_damage(lambda off, n: f"-1,{n}"), MODEL),
    "negative length": ("manifest", span_damage(lambda off, n: f"{off},-1"), MODEL),
    "offset not an integer": ("manifest", span_damage(lambda off, n: f"x,{n}"), MODEL),
    "length not an integer": ("manifest", span_damage(lambda off, n: f"{off},1.5"), MODEL),
    "no length": ("manifest", span_damage(lambda off, n: off), MODEL),
    "past the end": ("manifest", span_damage(lambda off, n: f"{off},{2**40}"), MODEL),
    "missing array file": ("arrays.npy", lambda data, tmp_path: None, "arrays.npy"),
    "array file elsewhere": ("arrays.npy", lambda data, tmp_path: misplaced(tmp_path, data),
                             "arrays.npy"),
    "array file not .npy": ("arrays.npy", lambda data, tmp_path: b"0,1,2\n", "arrays.npy"),
}


@pytest.mark.parametrize("case", list(HEADER_DAMAGE))
def test_damaged_header_entry_is_one_error_line_naming_the_file(originals, tmp_path, case):
    name, damage, at_fault = HEADER_DAMAGE[case]
    if name == "manifest":
        code, lines = model_run(originals, tmp_path, damage)
    else:
        code, lines = run_on_copy(originals, tmp_path, f"model/{name}",
                                  partial(damage, tmp_path=tmp_path))
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0].startswith(f"error: {tmp_path / 'model'}"), lines
    assert at_fault in lines[0], lines


@pytest.mark.parametrize("symbols", [255, 256])
def test_code_equal_to_table_size_is_one_error_line(tmp_path, symbols):
    # every word differs, so the w[0] column's table holds ``symbols`` words
    # and its codes fill a uint8 (255) or just pass one (256); the table size
    # is the code of an unseen query value, so a stored one must be refused
    rows, lengths = [], [10] * (symbols // 10) + [symbols % 10]
    for length in lengths:
        spans = [ChunkSpan(a, b, "NP") for a, b in ((0, 1), (3, 5), (7, 8)) if b < length]
        tags = encode(spans, Scheme.IOB1, length, typed=False)
        rows.append([(f"w{len(rows)}.{i}", "DT NN VB".split()[i % 3], tag)
                     for i, tag in enumerate(tags)])
    write_corpus(rows, tmp_path / "train.txt", columns=("word", "pos", "chunk"))
    write_corpus(rows[:2], tmp_path / "test.txt", columns=("word", "pos", "chunk"))
    model = tmp_path / "model"
    assert run_command(["train", "--task", "np-chunk", "--train", str(tmp_path / "train.txt"),
                        "--model", str(model), "--workers", "1"]) == 0
    arrays = np.load(model / "arrays.npy")
    manifest = json.loads((model / "manifest").read_text())
    entries = iob1_model(manifest)["columns"]
    codes_at = [int(span.split(",")[0]) for span, _ in entries]
    sizes = [len(manifest["symbols"][table]) for _, table in entries]
    at = codes_at[sizes.index(symbols)]
    column = load_chunker(model).streams[Scheme.IOB1].pass1.model.instances.columns[
        sizes.index(symbols)
    ]
    assert column.dtype == (np.uint8 if symbols == 255 else np.uint16)
    assert arrays[at] < symbols
    arrays[at] = symbols
    np.save(model / "arrays.npy", arrays)
    code, lines = main_exit(["chunk", "--model", str(model), "--input", str(tmp_path / "test.txt"),
                             "--output", str(tmp_path / "out.txt"), "--workers", "1"])
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0].endswith("holds a code out of range of its symbol table"), lines
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "second, line, message",
    [
        (["(S*", "NP"], 6, "bracket cell 'NP' lacks '*'"),
        (["(S*", "*S"], 6, "malformed bracket cell '*S'"),
        (["(S*", "*NP)"], 6, "unbalanced 'NP' close in column"),
        (["(NP*", "*"], 5, "unclosed 'NP' bracket in column"),
        (["x(S*", "*S)"], 5, "malformed bracket cell 'x(S*'"),
    ],
    ids=["no-star", "malformed", "unbalanced", "unclosed", "junk-open"],
)
@pytest.mark.parametrize("task", ["np-parse", "full-parse", "clauses"])
def test_bad_bracket_cell_names_file_and_line(task, second, line, message, tmp_path):
    # the second sentence's cells sit on lines 5 and 6, after the header,
    # the first sentence and a blank line
    role = "clause" if task == "clauses" else "tree"
    first = ["(S*", "*S)"]
    chunk = "\tI" if task == "clauses" else ""
    columns = "word pos chunk clause" if task == "clauses" else "word pos tree"
    rows = [f"w{i}\tNN{chunk}\t{cell}" for i, cell in enumerate(first)]
    rows += [""] + [f"v{i}\tNN{chunk}\t{cell}" for i, cell in enumerate(second)]
    corpus = tmp_path / "train.txt"
    corpus.write_text(f"#columns: {columns}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert corpus.read_text().splitlines()[line - 1].endswith(second[line - 5])
    code, lines = main_exit(["train", "--task", task, "--train", str(corpus),
                             "--model", str(tmp_path / "m"), "--workers", "1"])
    assert code == 2, role
    assert lines == [f"i/o error: {corpus}: line {line}: {message}"]
