"""Randomly damaged inputs end cleanly through ``main``'s error mapping.

Each example copies a small trained bundle, its input corpus and a config
file, damages one of them (a model file, the bundle manifest, the corpus or
the config) and runs the command that reads it.  The damage is one of:
truncation, deleting or duplicating a line, swapping two bytes, inserting a
byte that is not UTF-8, or setting one field to an empty, huge or negative
value.  The run must end with exit status 1 or 2 and exactly one line on
standard error, never a traceback; a damaged input that is still valid
(say, a deleted corpus line) may instead succeed with nothing on standard
error.
"""

import contextlib
import io
import re
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbparse.cli import main, run_command
from mbparse.corpus import write_corpus
from mbparse.schemes import Scheme, encode
from mbparse.synth import np_chunk_corpus

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
    ``name`` and run the command that reads it: ``train`` for the config,
    ``chunk`` for anything else."""
    shutil.copytree(originals / "model", dest / "model")
    for copied in ("train.txt", "test.txt", "run.ini"):
        shutil.copy(originals / copied, dest / copied)
    path = dest / name
    path.write_bytes(damage(path.read_bytes()))
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
        models = sorted(p.name for p in (originals / "model").glob("*.model"))
        name = "model/" + data.draw(st.sampled_from(models), label="file")
    else:
        name = {"manifest": "model/manifest", "corpus": "test.txt", "config": "run.ini"}[target]
    with tempfile.TemporaryDirectory() as tmp:
        code, lines = run_on_copy(originals, Path(tmp), name, partial(mutate, draw=data.draw))
    if code == 0:
        assert lines == []
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


def test_label_missing_from_class_line_is_one_error_line(originals, tmp_path):
    # an instance labelled with a class the frequency line lacks, at the
    # same total, once ended in a KeyError traceback when the index was built
    row = (originals / "model" / "IOB1.pass1.model").read_text().split("\n")[7]
    code, lines = edited_run(originals, tmp_path, "model/IOB1.pass1.model", 7,
                             row.rpartition("\t")[0] + "\tZZ")
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert lines[0].endswith("IOB1.pass1.model: class frequencies do not match the instance labels")


def test_unparsable_config_is_one_error_line(originals, tmp_path):
    # configparser's messages span several lines
    code, lines = edited_run(originals, tmp_path, "run.ini", 0, "[")
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_huge_k_in_model_file_still_tags(originals, tmp_path):
    # one selection pass per k once ran until k, whatever the distances
    code, lines = edited_run(originals, tmp_path, "model/IOB1.pass1.model", 2, "k " + "9" * 30)
    assert (code, lines) == (0, [])
