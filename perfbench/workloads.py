"""The benchmark's workloads: seeded inputs, the CLI commands, output checks.

Each workload writes its inputs from the seed.  A cycle is a ``train`` step
and a ``tag`` step that loads the bundle just saved; a run repeats cycles
while it measures and then scores the first tag output.  ``xor`` has no
corpus and no bundle: its cycle is one ``xor-experiment`` command.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from mbparse.corpus import encode_bracket_column, write_corpus
from mbparse.schemes import Scheme, encode
from mbparse.synth import np_chunk_corpus, parse_corpus

# Tokens per generated corpus, and xor rounds per extra-feature count.  Each
# corpus has this many tokens, less the few that no remaining sentence fits,
# so work per command and peak memory do not drift with the seed.
SCALES = {
    "desk": {
        "np-chunk": {"train": 5000, "test": 300},
        "full-parse": {"train": 3000, "test": 300},
        "xor": {"runs": 10},
    },
    "tiny": {
        "np-chunk": {"train": 600, "test": 40},
        "full-parse": {"train": 800, "test": 60},
        "xor": {"runs": 1},
    },
}
XOR_EXTRA = range(0, 11)  # random features added per xor round
XOR_ROWS = 400  # test rows classified per xor round
F_FLOOR = {"np-chunk": 80.0, "full-parse": 70.0}  # lowest plausible desk-scale F


@dataclass(frozen=True)
class Step:
    """One CLI command: its argv, the file its stdout goes to, and the file
    or directory it produces, whose digest is checked."""

    argv: list
    stdout: Path | None = None
    output: Path | None = None


def sha256(path) -> str:
    """Digest of a file, or of a directory's file names and contents."""
    path = Path(path)
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _take_tokens(generate, tokens: int, seed: int):
    """Sentences of a seeded corpus in order, skipping any that would
    overshoot, until ``tokens`` tokens are taken or no sentence fits."""
    sentences, gold = generate(tokens // 4 + 200, seed=seed)
    picked, total = [], 0
    for s, g in zip(sentences, gold):
        if total + len(s) <= tokens:
            picked.append((s, g))
            total += len(s)
            if total == tokens:
                break
    return [s for s, _ in picked], [g for _, g in picked]


def _write_chunks(path, sentences, gold) -> None:
    rows = []
    for s, spans in zip(sentences, gold):
        tags = encode(spans, Scheme.IOB1, len(s), typed=False)
        rows.append([(t.word, t.pos, tag) for t, tag in zip(s, tags)])
    write_corpus(rows, path, columns=("word", "pos", "chunk"))


def _write_trees(path, sentences, gold) -> None:
    rows = []
    for s, spans in zip(sentences, gold):
        cells = encode_bracket_column(spans, len(s))
        rows.append([(t.word, t.pos, c) for t, c in zip(s, cells)])
    write_corpus(rows, path, columns=("word", "pos", "tree"))


class Workload:
    """Inputs and commands of one workload in one work directory."""

    def __init__(self, name: str, seed: int, scale: str, work: Path):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.sizes = SCALES[scale][name]
        self.work = work
        self.corpora: dict[str, int] = {}  # corpus name -> tokens

    def write_inputs(self) -> None:
        if self.name == "xor":
            return
        generate, write = ((np_chunk_corpus, _write_chunks) if self.name == "np-chunk"
                           else (parse_corpus, _write_trees))
        for part, seed in (("train", 2 * self.seed), ("test", 2 * self.seed + 1)):
            sentences, gold = _take_tokens(generate, self.sizes[part], seed)
            write(self.work / f"{part}.txt", sentences, gold)
            self.corpora[part] = sum(len(s) for s in sentences)

    def xor_rounds(self) -> int:
        return self.sizes["runs"] * len(XOR_EXTRA)

    def tag_items(self) -> int:
        """Tokens (xor: test rows) one tag command labels."""
        if self.name == "xor":
            return XOR_ROWS * self.xor_rounds()
        return self.corpora["test"]

    # -- commands; ``tag`` names the pass, ``i`` the cycle within it

    def train_step(self, tag: str, i: int) -> Step | None:
        if self.name == "xor":
            return None
        model = self.work / f"model{tag}.{i}"
        return Step(["train", "--task", self.name, "--train", str(self.work / "train.txt"),
                     "--model", str(model), "--workers", "1"], output=model)

    def tag_step(self, tag: str, i: int) -> Step:
        if self.name == "xor":
            table = self.work / f"xor{tag}.{i}.txt"
            return Step(["xor-experiment", "--extra", f"{XOR_EXTRA[0]}..{XOR_EXTRA[-1]}",
                         "--runs", str(self.sizes["runs"]), "--seed", str(self.seed),
                         "--workers", "1"], stdout=table, output=table)
        out = self.work / f"out{tag}.{i}.txt"
        verb = "chunk" if self.name == "np-chunk" else "parse"
        return Step([verb, "--model", str(self.work / f"model{tag}.{i}"),
                     "--input", str(self.work / "test.txt"), "--output", str(out),
                     "--workers", "1"], output=out)

    def score_step(self, tag: str) -> Step | None:
        if self.name == "xor":
            return None
        argv = ["evaluate", "--found", str(self.work / f"out{tag}.0.txt"),
                "--gold", str(self.work / "test.txt"), "--machine"]
        if self.name == "full-parse":
            argv += ["--column", "tree"]
        score = self.work / f"score{tag}.txt"
        return Step(argv, stdout=score, output=score)

    # -- checks

    def check_output(self, path) -> str | None:
        """Why the tag output at ``path`` is malformed, or None."""
        if self.name == "xor":
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            expected = ["extra\tmean_correct"] + [f"{e}\t" for e in XOR_EXTRA]
            if len(lines) != len(expected):
                return f"xor table has {len(lines)} lines, expected {len(expected)}"
            for line, prefix in zip(lines[1:], expected[1:]):
                if not line.startswith(prefix) or not 0 <= _number(line) <= XOR_ROWS:
                    return f"bad xor table row {line!r}"
            return None
        found = _rows(path)
        gold = _rows(self.work / "test.txt")
        if [r[:2] for r in found] != [r[:2] for r in gold]:
            return "output tokens differ from the input tokens"
        if any(r and (len(r) != 3 or not r[2]) for r in found):
            return "output rows lack a tag column"
        return None

    def quality(self, tag: str) -> float:
        """F of the first tag output (xor: mean share of test rows correct),
        or -1 when the score cannot be read."""
        if self.name == "xor":
            lines = self.tag_step(tag, 0).output.read_text(encoding="utf-8").splitlines()[1:]
            means = [_number(line) for line in lines]
            return 100.0 * sum(means) / (len(means) * XOR_ROWS)
        lines = (self.work / f"score{tag}.txt").read_text(encoding="utf-8").splitlines()
        overall = [line for line in lines if line.startswith("all\t")]
        return _number(overall[0], 3) if overall else -1.0

    def quality_problem(self, f: float) -> str | None:
        if f < 0:
            return "no score in the output"
        floor = F_FLOOR.get(self.name) if self.scale == "desk" else None
        if floor is not None and f < floor:
            return f"F {f:.2f} is below the floor {floor}"
        return None


def _number(line: str, column: int = 1) -> float:
    """The number in a tab-separated column of ``line``, or -1."""
    try:
        return float(line.split("\t")[column])
    except (IndexError, ValueError):
        return -1.0


def _rows(path) -> list[tuple[str, ...]]:
    """Rows of a column file, with () for each sentence break."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        out.append(tuple(line.split("\t")) if line.strip() else ())
    return out


def bundle_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())
