"""Golden digests: the bytes that ``train``, every tag command and
``xor-experiment`` write for seeded tiny ``synth`` inputs.

A change that should leave every model file, tag output and table
byte-identical (a speed-up, a refactor) must keep these digests.  A change that means to alter
the output updates them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from mbparse.cli import run_command
from mbparse.corpus import encode_bracket_column, write_corpus
from mbparse.schemes import Scheme, encode
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)

# bundle format 7: a JSON manifest that holds the models and their symbol
# tables, each template beside its model and no field that tagging does not
# read, and one int32 .npy array file of code columns
BUNDLE_DIGESTS = {
    "np-chunk": "309dd2614497e1a3379c59c7ef796199439d576a9db1e6588b272a173bc3b557",
    "full-parse": "f82b8fffc083da84c5e1cda386f279e2ad57c9d9427bb1b8bbb10855746608fc",
}
# ``chunk`` and ``parse`` outputs of the bundles above on 20 held-out sentences
TAG_DIGESTS = {
    "np-chunk": "1114e9856edabff8cb6e302a500f695b6ddb074ae192193072a22354fbeed749",
    "full-parse": "99e283435377a021e5dcad132aba636506faa39365804a372e6e48d48c74e1a1",
}
# bundles of the typed chunker (under each type strategy), the clause
# bracketer and the noun-phrase parser, trained on 80 seeded sentences
# (format 7, as above)
MORE_BUNDLE_DIGESTS = {
    ("typed-chunk", "single_phase"):
        "95396b166b2159a7839ad5acf6e30788320bd66c031b639825741ff9125c5b06",
    ("typed-chunk", "double_phase"):
        "c4899bbb77ddd34444c995f4e110cddfdfdc03cc8c25686e52c48cc43024d53f",
    ("typed-chunk", "n_phase"):
        "9ae551487ff7b344263f08ad4b813b53427f3b58e4c01adc207fdaf3ab31aca1",
    ("clauses", None): "7a55648d9ae33b5a7d7942170d6bc9ede3fbd1b2658de2b36b5af238d688137a",
    ("np-parse", None): "e7a29e66b402e39be98c590e065656693f6377ad0dbf5dc8c37b549799510648",
}
# outputs of the tag command of each bundle above on 20 held-out sentences
MORE_TAG_DIGESTS = {
    ("typed-chunk", "single_phase"):
        "68855ae6e7a29098a0802e17ac07b6984b0653ab1c66550fa13e53e35b885621",
    ("typed-chunk", "double_phase"):
        "941096ac8d3ea645b3c091c4461a2037ea921c9fd8c02371aaa2cc680b8b4c7c",
    ("typed-chunk", "n_phase"):
        "f45ee74b25b2b1dae01a1d3fade2f43828b871cd39d89245f30a5e447effcc77",
    ("clauses", None): "6d4f9113665246b5c02caee14d6bf83192ffa0bcf91ec3ceba205f0e59ee0167",
    ("np-parse", None): "9b5185223a95668733d6aebe0d25bd2664220cf9cc26687e45ead8ac57507413",
}
VERBS = {"np-chunk": "chunk", "typed-chunk": "chunk-typed", "clauses": "clauses",
         "np-parse": "parse-np", "full-parse": "parse"}
XOR_DIGEST = "c2f912c7e522ae54b85cd85b1392aa2ee4c177bd6d5ae77c471c7fd7caeb8068"


def digest(path: Path) -> str:
    """SHA-256 of a file, or of a directory's file names and contents."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def write_train_corpus(task: str, path: Path, n: int = 80, seed: int = 1) -> None:
    rows = []
    if task in ("np-chunk", "typed-chunk"):
        typed = task == "typed-chunk"
        generate = typed_chunk_corpus if typed else np_chunk_corpus
        sentences, gold = generate(n, seed=seed)
        for s, spans in zip(sentences, gold):
            tags = encode(spans, Scheme.IOB1, len(s), typed=typed)
            rows.append([(t.word, t.pos, tag) for t, tag in zip(s, tags)])
        write_corpus(rows, path, columns=("word", "pos", "chunk"))
    elif task == "clauses":
        sentences, _, forests = clause_corpus(n, seed=seed)
        for s, forest in zip(sentences, forests):
            cells = encode_bracket_column(forest, len(s))
            rows.append([(t.word, t.pos, t.chunk_tag, c) for t, c in zip(s, cells)])
        write_corpus(rows, path, columns=("word", "pos", "chunk", "clause"))
    else:
        generate = nested_np_corpus if task == "np-parse" else parse_corpus
        sentences, gold = generate(n, seed=seed)
        for s, spans in zip(sentences, gold):
            cells = encode_bracket_column(spans, len(s))
            rows.append([(t.word, t.pos, c) for t, c in zip(s, cells)])
        write_corpus(rows, path, columns=("word", "pos", "tree"))


def train_bundle(task: str, tmp_path: Path, strategy: str | None = None) -> Path:
    write_train_corpus(task, tmp_path / "train.txt")
    model = tmp_path / "model"
    argv = ["train", "--task", task, "--train", str(tmp_path / "train.txt"),
            "--model", str(model), "--workers", "1"]
    if strategy is not None:
        argv += ["--set", f"chunker.type_strategy={strategy}"]
    assert run_command(argv) == 0
    return model


@pytest.mark.parametrize("task", sorted(BUNDLE_DIGESTS))
def test_train_bundle_digest(task, tmp_path):
    assert digest(train_bundle(task, tmp_path)) == BUNDLE_DIGESTS[task]


def tag_output(task: str, model: Path, tmp_path: Path) -> str:
    """Digest of what the task's tag command writes for 20 held-out sentences."""
    write_train_corpus(task, tmp_path / "test.txt", n=20, seed=2)
    argv = [VERBS[task], "--model", str(model), "--input", str(tmp_path / "test.txt"),
            "--output", str(tmp_path / "out.txt"), "--workers", "1"]
    assert run_command(argv) == 0
    return digest(tmp_path / "out.txt")


@pytest.mark.parametrize("task, strategy", sorted(MORE_BUNDLE_DIGESTS, key=str))
def test_more_train_bundle_digests(task, strategy, tmp_path):
    model = train_bundle(task, tmp_path, strategy)
    assert digest(model) == MORE_BUNDLE_DIGESTS[task, strategy]
    assert tag_output(task, model, tmp_path) == MORE_TAG_DIGESTS[task, strategy]


@pytest.mark.parametrize("task", sorted(TAG_DIGESTS))
def test_tag_output_digest(task, tmp_path):
    model = train_bundle(task, tmp_path)
    assert tag_output(task, model, tmp_path) == TAG_DIGESTS[task]


def test_xor_table_digest(capsys):
    argv = ["xor-experiment", "--extra", "0..10", "--runs", "2", "--seed", "1",
            "--workers", "1"]
    assert run_command(argv) == 0
    table = capsys.readouterr().out
    assert hashlib.sha256(table.encode()).hexdigest() == XOR_DIGEST
