"""``scripts/make_toy_corpus.py``, which the README tells users to run,
writes corpora that every task trains on, tags and scores through the
command line."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbparse
from mbparse.cli import run_command

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_toy_corpus.py"

# task, corpus name, tag command, evaluate column
TASKS = [
    ("np-chunk", "np", "chunk", "chunk"),
    ("typed-chunk", "typed", "chunk-typed", "chunk"),
    ("clauses", "clauses", "clauses", "clause"),
    ("np-parse", "nested", "parse-np", "tree"),
    ("full-parse", "trees", "parse", "tree"),
]

# sha256 of each file written with --train-size 30 --test-size 8 --seed 5
DIGESTS = {
    "clauses.test": "3d68537f0061bc6df2ff1c979cce316120da0f9d7e30a052f2e7711ffac32503",
    "clauses.train": "6f9875e41dd831358f6e16d45d55c899672d75cf8f6c45844bc1731a0b0ebb3c",
    "nested.test": "ffd2ce6d36bea6f8aba70fe114615fe001033f02aecaf45a3a6c0e4b10a26598",
    "nested.train": "0091a0def353b36b61804b58e9442f3b06b5c0cec870a21b47c8c62f66159552",
    "np.test": "34035cd064188a67a6dfce4def3abef84c0ca933d3a333edcef5e0a9457d1039",
    "np.train": "220fad3e3c5c0b3971095c2d7d1b6132160203269b56087e5aa652731932ba97",
    "trees.test": "a56568b2f7dec1abb4820d4c1b523e85f2ecf7d3ea970d926e7a187149553a7f",
    "trees.train": "e567f2f9e691174cb7e747fbc2d99ebedece5be24dc4a307709f34c7057cd2d3",
    "typed.test": "c7327aa92d50602e4d443a72447f6af50f15e1fe6d0fdbb48f0ab838db0006ee",
    "typed.train": "6e7256a99d31c46ad1311abd389c10e4546a8e26a40a4898a3a066a41fc0df9f",
}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    src = str(Path(mbparse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--train-size", "30",
         "--test-size", "8", "--seed", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"wrote toy corpora to {out}/"
    return out


@pytest.mark.parametrize("task, name, command, column", TASKS, ids=[t[0] for t in TASKS])
def test_toy_corpus_trains_tags_and_scores(toy, task, name, command, column, tmp_path, capsys):
    model, out = tmp_path / "model", tmp_path / "out.txt"
    assert run_command(["train", "--task", task, "--train", str(toy / f"{name}.train"),
                        "--model", str(model), "--workers", "1"]) == 0
    assert run_command([command, "--model", str(model), "--input", str(toy / f"{name}.test"),
                        "--output", str(out), "--workers", "1"]) == 0
    capsys.readouterr()
    assert run_command(["evaluate", "--found", str(out), "--gold", str(toy / f"{name}.test"),
                        "--column", column, "--machine"]) == 0
    overall = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert overall[0] == "all" and 0.0 <= float(overall[3]) <= 100.0


def test_toy_corpus_bytes_are_pinned(toy):
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in toy.iterdir()}
    assert written == DIGESTS
