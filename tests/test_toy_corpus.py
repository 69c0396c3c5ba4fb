"""``scripts/make_toy_corpus.py``, which the README tells users to run,
writes corpora that every task trains on, tags and scores through the
command line."""

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
