import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mbparse
from mbparse import bundles, cli, config as cfgmod, features, folds
from mbparse.cli import main, run_command
from mbparse.corpus import encode_bracket_column, encode_clause_column, write_corpus
from mbparse.errors import ConfigError
from mbparse.evaluate import score
from mbparse.learner import Model, _ModelIndex
from mbparse.schemes import Scheme, encode
from mbparse.synth import (
    clause_corpus,
    nested_np_corpus,
    np_chunk_corpus,
    parse_corpus,
    typed_chunk_corpus,
)
from references import model_objects


def dump_chunk_file(path, sentences, gold, typed=False):
    rows = []
    for s, g in zip(sentences, gold):
        tags = encode(g, Scheme.IOB1, len(s), typed=typed)
        rows.append([(t.word, t.pos, tag) for t, tag in zip(s, tags)])
    write_corpus(rows, path, columns=("word", "pos", "chunk"))


def dump_tree_file(path, sentences, gold):
    rows = []
    for s, g in zip(sentences, gold):
        cells = encode_bracket_column(g, len(s))
        rows.append([(t.word, t.pos, c) for t, c in zip(s, cells)])
    write_corpus(rows, path, columns=("word", "pos", "tree"))


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    tr_s, tr_g = np_chunk_corpus(60, seed=41)
    te_s, te_g = np_chunk_corpus(20, seed=42)
    dump_chunk_file(d / "train.txt", tr_s, tr_g)
    dump_chunk_file(d / "gold.txt", te_s, te_g)
    return d


class TestChunkFlow:
    def test_train_chunk_evaluate(self, toy, capsys):
        assert run_command(
            ["train", "--task", "np-chunk", "--train", str(toy / "train.txt"),
             "--model", str(toy / "model"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["chunk", "--model", str(toy / "model"), "--input", str(toy / "gold.txt"),
             "--output", str(toy / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(toy / "out.txt"), "--gold", str(toy / "gold.txt")]
        ) == 0
        printed = capsys.readouterr().out
        assert "F " in printed

    def test_identical_files_score_hundred(self, toy, capsys):
        assert run_command(
            ["evaluate", "--found", str(toy / "gold.txt"), "--gold", str(toy / "gold.txt")]
        ) == 0
        assert "F 100.00" in capsys.readouterr().out

    def test_outputs_byte_identical_across_runs(self, toy):
        for name in ("a.txt", "b.txt"):
            run_command(
                ["chunk", "--model", str(toy / "model"), "--input", str(toy / "gold.txt"),
                 "--output", str(toy / name), "--workers", "1"]
            )
        assert (toy / "a.txt").read_bytes() == (toy / "b.txt").read_bytes()

    def test_worker_pool_matches_serial(self, toy):
        run_command(
            ["chunk", "--model", str(toy / "model"), "--input", str(toy / "gold.txt"),
             "--output", str(toy / "par.txt"), "--workers", "3"]
        )
        assert (toy / "par.txt").read_bytes() == (toy / "a.txt").read_bytes()

    def test_per_type_and_machine_output(self, toy, capsys):
        run_command(
            ["evaluate", "--found", str(toy / "gold.txt"), "--gold", str(toy / "gold.txt"),
             "--per-type"]
        )
        assert "all" in capsys.readouterr().out
        run_command(
            ["evaluate", "--found", str(toy / "gold.txt"), "--gold", str(toy / "gold.txt"),
             "--machine"]
        )
        out = capsys.readouterr().out
        assert "all\t100.00\t100.00\t100.00" in out

    def test_bootstrap_command(self, toy, capsys):
        assert run_command(
            ["bootstrap", "--found", str(toy / "gold.txt"), "--gold", str(toy / "gold.txt"),
             "--samples", "200", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "stddev 0.00" in out

    @pytest.mark.parametrize("command", ["evaluate", "bootstrap"])
    def test_scoring_codes_no_channel(self, command, toy, monkeypatch):
        """Scoring reads the files' sentence lengths and spans only, so no
        channel of words, POS tags or chunk tags is coded."""
        coded = []
        code_channel = features._code_channel
        monkeypatch.setattr(features, "_code_channel",
                            lambda cells: coded.append(cells) or code_channel(cells))
        files = ["--found", str(toy / "gold.txt"), "--gold", str(toy / "gold.txt")]
        samples = ["--samples", "20"] if command == "bootstrap" else []
        assert run_command([command, *files, *samples]) == 0
        assert coded == []
        features.CodedCorpus(lengths=[1], cells={"w": ["a"], "p": ["NN"], "c": None})
        assert coded == [["a"], ["NN"]]  # the recorder sees a coding

    def test_beta_reaches_every_scoring_command(self, toy, capsys, monkeypatch):
        """``eval.beta`` sets the F that bootstrap and select-features use,
        as it does evaluate's."""
        files = ["--found", str(toy / "out.txt"), "--gold", str(toy / "gold.txt")]
        beta = ["--set", "eval.beta=0.5"]
        assert run_command(["evaluate", *files]) == 0
        f1 = capsys.readouterr().out.split()[-1]
        assert run_command(["evaluate", *files, *beta]) == 0
        f = capsys.readouterr().out.split()[-1]
        assert f != f1  # precision and recall differ, so beta shows
        assert run_command(["bootstrap", *files, *beta, "--samples", "20"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"point F {f}"
        betas = []

        def recording(found, gold, config):
            betas.append(config.beta)
            return score(found, gold, config)

        monkeypatch.setattr(cli, "score", recording)
        assert run_command(
            ["select-features", "--train", str(toy / "gold.txt"), "--candidates", "p[0]",
             "--folds", "2", *beta]
        ) == 0
        assert betas and set(betas) == {0.5}


def dump_clause_file(path, sentences, forests):
    rows = []
    for s, f in zip(sentences, forests):
        cells = encode_clause_column(f, len(s))
        rows.append([(t.word, t.pos, t.chunk_tag, c) for t, c in zip(s, cells)])
    write_corpus(rows, path, columns=("word", "pos", "chunk", "clause"))


@pytest.fixture(scope="module")
def tag_bundles(tmp_path_factory):
    """Per tag command: a small trained bundle and a 16-sentence input."""
    d = tmp_path_factory.mktemp("bundles")
    setups = {  # command: (task, corpus generator, writer of one generated corpus)
        "chunk": ("np-chunk", np_chunk_corpus,
                  lambda path, c: dump_chunk_file(path, c[0], c[1])),
        "chunk-typed": ("typed-chunk", typed_chunk_corpus,
                        lambda path, c: dump_chunk_file(path, c[0], c[1], typed=True)),
        "clauses": ("clauses", clause_corpus,
                    lambda path, c: dump_clause_file(path, c[0], c[2])),
        "parse-np": ("np-parse", nested_np_corpus,
                     lambda path, c: dump_tree_file(path, c[0], c[1])),
        "parse": ("full-parse", parse_corpus,
                  lambda path, c: dump_tree_file(path, c[0], c[1])),
    }
    out = {}
    for command, (task, generate, dump) in setups.items():
        dump(d / f"{task}.train", generate(30, seed=80))
        dump(d / f"{task}.test", generate(16, seed=81))
        assert run_command(
            ["train", "--task", task, "--train", str(d / f"{task}.train"),
             "--model", str(d / task), "--workers", "1"]
        ) == 0
        out[command] = (d / task, d / f"{task}.test")
    return out


TAG_COMMANDS = ["chunk", "chunk-typed", "clauses", "parse-np", "parse"]


@pytest.mark.parametrize("command", TAG_COMMANDS)
def test_workers_inherit_the_bundle(command, tag_bundles, tmp_path, monkeypatch):
    """Forked workers tag with the bundle the parent loaded and the query
    indexes it built before the fork: with models that refuse to pickle and
    index builds that refuse to run in any other process, ``--workers 3``
    still writes what ``--workers 1`` does."""

    def refuse(self, protocol):
        raise TypeError("a Model must not be pickled")

    parent = os.getpid()
    build = _ModelIndex.build

    def parent_only(model):
        if os.getpid() != parent:
            raise RuntimeError("a query index was built after the fork")
        return build(model)

    monkeypatch.setattr(Model, "__reduce_ex__", refuse)
    monkeypatch.setattr(_ModelIndex, "build", staticmethod(parent_only))
    model, corpus = tag_bundles[command]
    written = []
    for workers in ("1", "3"):
        out = tmp_path / f"workers{workers}.txt"
        assert run_command(
            [command, "--model", str(model), "--input", str(corpus),
             "--output", str(out), "--workers", workers]
        ) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


class TestTypedAndParsers:
    def test_typed_chunk_flow(self, tmp_path, capsys):
        tr_s, tr_g = typed_chunk_corpus(50, seed=43)
        te_s, te_g = typed_chunk_corpus(15, seed=44)
        dump_chunk_file(tmp_path / "train.txt", tr_s, tr_g, typed=True)
        dump_chunk_file(tmp_path / "gold.txt", te_s, te_g, typed=True)
        assert run_command(
            ["train", "--task", "typed-chunk", "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["chunk-typed", "--model", str(tmp_path / "m"),
             "--input", str(tmp_path / "gold.txt"),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(tmp_path / "out.txt"),
             "--gold", str(tmp_path / "gold.txt"), "--per-type"]
        ) == 0
        assert "NP" in capsys.readouterr().out

    def test_n_phase_types_with_path_characters(self, tmp_path, capsys):
        # an n-phase chunker keeps one chunker per chunk type, keyed by the
        # type in the manifest; "A/B", "A%2FB" and ".." must stay apart and
        # name no file
        rename = {"NP": "A/B", "VP": "A%2FB", "PP": ".."}
        tr_s, tr_g = typed_chunk_corpus(50, seed=43)
        te_s, te_g = typed_chunk_corpus(15, seed=44)
        for path, sentences, gold in (("train.txt", tr_s, tr_g), ("gold.txt", te_s, te_g)):
            gold = [[replace(sp, type=rename.get(sp.type, sp.type)) for sp in g] for g in gold]
            dump_chunk_file(tmp_path / path, sentences, gold, typed=True)
        assert run_command(
            ["train", "--task", "typed-chunk", "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--workers", "1",
             "--set", "chunker.type_strategy=n_phase"]
        ) == 0
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["arrays.npy", "manifest"]
        manifest = json.loads((tmp_path / "m" / "manifest").read_text(encoding="utf-8"))
        assert set(rename.values()) <= set(manifest["per_type"])
        assert run_command(
            ["chunk-typed", "--model", str(tmp_path / "m"),
             "--input", str(tmp_path / "gold.txt"),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(tmp_path / "out.txt"),
             "--gold", str(tmp_path / "gold.txt"), "--per-type"]
        ) == 0
        out = capsys.readouterr().out
        assert all(t in out for t in rename.values())
        found = (tmp_path / "out.txt").read_text(encoding="utf-8")
        assert all(f"I-{t}" in found for t in rename.values())

    def test_parse_flow(self, tmp_path):
        tr_s, tr_g = parse_corpus(50, seed=45)
        te_s, te_g = parse_corpus(10, seed=46)
        dump_tree_file(tmp_path / "train.txt", tr_s, tr_g)
        dump_tree_file(tmp_path / "gold.txt", te_s, te_g)
        assert run_command(
            ["train", "--task", "full-parse", "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["parse", "--model", str(tmp_path / "m"), "--input", str(tmp_path / "gold.txt"),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(tmp_path / "out.txt"),
             "--gold", str(tmp_path / "gold.txt"), "--column", "tree"]
        ) == 0

    def test_parse_np_flow(self, tmp_path):
        from mbparse.synth import nested_np_corpus

        tr_s, tr_g = nested_np_corpus(50, seed=52)
        te_s, te_g = nested_np_corpus(10, seed=53)
        dump_tree_file(tmp_path / "train.txt", tr_s, tr_g)
        dump_tree_file(tmp_path / "gold.txt", te_s, te_g)
        assert run_command(
            ["train", "--task", "np-parse", "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["parse-np", "--model", str(tmp_path / "m"), "--input", str(tmp_path / "gold.txt"),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(tmp_path / "out.txt"),
             "--gold", str(tmp_path / "gold.txt"), "--column", "tree"]
        ) == 0

    def test_clauses_flow(self, tmp_path):
        tr_s, tr_c, tr_f = clause_corpus(40, seed=47)
        te_s, te_c, te_f = clause_corpus(10, seed=48)
        dump_clause_file(tmp_path / "train.txt", tr_s, tr_f)
        dump_clause_file(tmp_path / "gold.txt", te_s, te_f)
        assert run_command(
            ["train", "--task", "clauses", "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["clauses", "--model", str(tmp_path / "m"), "--input", str(tmp_path / "gold.txt"),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"]
        ) == 0
        assert run_command(
            ["evaluate", "--found", str(tmp_path / "out.txt"),
             "--gold", str(tmp_path / "gold.txt"), "--column", "clause"]
        ) == 0


class TestCombineCommand:
    def test_majority_three_inputs(self, tmp_path, capsys):
        te_s, te_g = np_chunk_corpus(15, seed=49)
        dump_chunk_file(tmp_path / "gold.txt", te_s, te_g)
        # three noisy copies: perturb different sentences in each
        for k in range(3):
            import random

            rng = random.Random(k)
            rows = []
            for si, (s, g) in enumerate(zip(te_s, te_g)):
                tags = encode(g, Scheme.IOB1, len(s), typed=False)
                if si % 3 == k and tags:
                    i = rng.randrange(len(tags))
                    tags[i] = "I" if tags[i] == "O" else "O"
                rows.append([(t.word, t.pos, tag) for t, tag in zip(s, tags)])
            write_corpus(rows, tmp_path / f"sys{k}.txt", columns=("word", "pos", "chunk"))
        assert run_command(
            ["combine", "--method", "majority",
             "--inputs", str(tmp_path / "sys0.txt"), str(tmp_path / "sys1.txt"),
             str(tmp_path / "sys2.txt"), "--output", str(tmp_path / "voted.txt")]
        ) == 0
        run_command(
            ["evaluate", "--found", str(tmp_path / "voted.txt"),
             "--gold", str(tmp_path / "gold.txt")]
        )
        assert "F 100.00" in capsys.readouterr().out  # each error outvoted 2:1

    def test_words_and_pos_by_role(self, tmp_path):
        rows = [[("NN", "a", "B-NP"), ("VB", "b", "O")], [("DT", "c", "I-NP")]]
        for k in range(3):
            write_corpus(rows, tmp_path / f"sys{k}.txt", columns=("pos", "word", "chunk"))
        assert run_command(
            ["combine", "--method", "majority",
             "--inputs", *(str(tmp_path / f"sys{k}.txt") for k in range(3)),
             "--output", str(tmp_path / "voted.txt")]
        ) == 0
        assert (tmp_path / "voted.txt").read_text().splitlines() == [
            "#columns: word pos chunk", "a\tNN\tB-NP", "b\tVB\tO", "", "c\tDT\tI-NP",
        ]

    def test_without_a_word_column_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        for k in range(3):
            write_corpus([[("NN", "B-NP")]], tmp_path / f"sys{k}.txt", columns=("pos", "chunk"))
        code, lines = _main_exit(
            ["combine", "--method", "majority",
             "--inputs", *(str(tmp_path / f"sys{k}.txt") for k in range(3)),
             "--output", str(tmp_path / "voted.txt")], monkeypatch, capsys)
        assert code == 1
        assert lines == ["error: corpus has no 'word' column (has ['pos', 'chunk'])"]


class TestSelectFeaturesCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        tr_s, tr_g = np_chunk_corpus(30, seed=50)
        dump_chunk_file(tmp_path / "train.txt", tr_s, tr_g)
        assert run_command(
            ["select-features", "--train", str(tmp_path / "train.txt"),
             "--candidates", "p[-1..1]", "--beam", "2", "--folds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "best set:" in out and "templates evaluated:" in out

    # k=1 holds the output from before select-features ran its folds through
    # folds.CrossValidation; at k=3 the search used to stop at the empty set
    # (score 0.00 after 7 templates), where every one-feature template ties it
    @pytest.mark.parametrize("k, expected", [
        (1, ["best set: w[-1..1] p[-1..0]", "score: 90.56", "templates evaluated: 56"]),
        (3, ["best set: w[-1..1] p[-1..1]", "score: 82.99", "templates evaluated: 54"]),
    ])
    def test_pinned_output(self, k, expected, tmp_path, monkeypatch, capsys):
        tr_s, tr_g = np_chunk_corpus(40, seed=50)
        dump_chunk_file(tmp_path / "train.txt", tr_s, tr_g)
        runs = []
        run = folds.CrossValidation.run

        def recording(cv, *args, **kwargs):
            runs.append(cv)
            return run(cv, *args, **kwargs)

        monkeypatch.setattr(folds.CrossValidation, "run", recording)
        assert run_command(
            ["select-features", "--train", str(tmp_path / "train.txt"),
             "--candidates", "w[-1..1] p[-1..1]", "--folds", "3", "--set", f"learner.k={k}"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == expected
        # one run over the same folds per template but the empty one
        assert len(runs) == int(expected[2].split()[-1]) - 1 and len(set(map(id, runs))) == 1

    def test_more_folds_than_sentences_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a fold with no test sentence would add an F of 0 to the average
        tr_s, tr_g = np_chunk_corpus(3, seed=50)
        dump_chunk_file(tmp_path / "train.txt", tr_s, tr_g)
        argv = ["select-features", "--train", str(tmp_path / "train.txt"),
                "--candidates", "p[-1..1]", "--set", "learner.k=1"]
        code, lines = _main_exit([*argv, "--folds", "4"], monkeypatch, capsys)
        assert code == 1
        assert lines == ["error: --folds 4 exceeds the 3 training sentences"]
        assert run_command([*argv, "--folds", "3"]) == 0


class TestXorCommand:
    def test_table_shape(self, capsys):
        assert run_command(
            ["xor-experiment", "--extra", "0..2", "--runs", "2", "--seed", "5", "--k", "1"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "extra\tmean_correct"
        assert len(lines) == 4
        assert lines[1].startswith("0\t400.00")

    def test_comma_list(self, capsys):
        assert run_command(
            ["xor-experiment", "--extra", "0,2", "--runs", "1", "--seed", "5", "--k", "1"]
        ) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


class TestErrors:
    def test_unknown_config_key_is_strict(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[learner]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            run_command(
                ["xor-experiment", "--extra", "0", "--runs", "1", "--seed", "1",
                 "--config", str(cfg)]
            )

    def test_usage_error_is_config_error(self):
        with pytest.raises(ConfigError):
            run_command(["no-such-command"])

    def test_main_exit_codes(self, tmp_path, monkeypatch, capsys):
        import sys

        monkeypatch.setattr(sys, "argv", ["mbparse", "no-such-command"])
        with pytest.raises(SystemExit) as exit1:
            main()
        assert exit1.value.code == 1

        monkeypatch.setattr(
            sys,
            "argv",
            ["mbparse", "evaluate", "--found", str(tmp_path / "missing.txt"),
             "--gold", str(tmp_path / "missing.txt")],
        )
        with pytest.raises(SystemExit) as exit2:
            main()
        assert exit2.value.code == 2

    def test_out_of_memory_is_one_error_line(self, tag_bundles, tmp_path, monkeypatch,
                                             capsys):
        def exhausted(model, queries):
            raise MemoryError(
                "Unable to allocate 4.00 GiB for an array\nwith shape (512, 200000)"
            )

        monkeypatch.setattr(mbparse.pipeline, "classify_labels", exhausted)
        model, corpus = tag_bundles["chunk"]
        code, lines = _main_exit(
            ["chunk", "--model", str(model), "--input", str(corpus),
             "--output", str(tmp_path / "out.txt"), "--workers", "1"],
            monkeypatch, capsys,
        )
        assert code == 1
        assert lines == [
            "error: out of memory: Unable to allocate 4.00 GiB for an array "
            "with shape (512, 200000)"
        ]

    def test_ragged_corpus_gives_io_exit(self, tmp_path, monkeypatch):
        import sys

        bad = tmp_path / "bad.txt"
        bad.write_text("a\tB\tO\nb\tC\n")
        monkeypatch.setattr(
            sys, "argv",
            ["mbparse", "evaluate", "--found", str(bad), "--gold", str(bad)],
        )
        with pytest.raises(SystemExit) as err:
            main()
        assert err.value.code == 2


def _main_exit(argv, monkeypatch, capsys):
    """Exit status and standard-error lines of ``main`` run on ``argv``,
    which must fail before it writes anything to standard output."""
    monkeypatch.setattr(sys, "argv", ["mbparse", *argv])
    with pytest.raises(SystemExit) as err:
        main()
    captured = capsys.readouterr()
    assert captured.out == ""
    return err.value.code, captured.err.splitlines()


class TestStrictValues:
    """A bad value ends in one ``error:`` line that names the key or flag."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["train", "--task", "np-chunk", "--set", "learner.tie_policy=bogus"],
             "learner.tie_policy"),
            (["train", "--task", "np-chunk", "--set", "chunker.representations=XYZ"],
             "chunker.representations"),
            (["train", "--task", "typed-chunk", "--set", "chunker.type_strategy=bogus"],
             "chunker.type_strategy"),
            (["evaluate", "--scheme", "bogus"], "--scheme"),
            (["bootstrap", "--scheme", "bogus"], "--scheme"),
            (["select-features", "--scheme", "bogus"], "--scheme"),
            (["xor-experiment", "--extra", "a..b"], "--extra"),
            (["xor-experiment", "--set", "run.seed=1"], "unknown key run.seed"),
            (["xor-experiment", "--set", "xor.k=1"], "unknown key xor.k"),
            (["select-features", "--folds", "0"], "--folds"),
            (["select-features", "--folds", "-1"], "--folds"),
            (["select-features", "--candidates", "p[-1..0] c[-1]"], "--candidates"),
            (["chunk", "--workers", "-5"], "--workers"),
            (["chunk", "--set", "run.workers=-2"], "run.workers"),
            (["chunk", "--set", "run.workers=0"], "run.workers"),
            (["train", "--task", "np-chunk", "--workers", "-1"], "--workers"),
            (["xor-experiment", "--extra", "5..2"], "--extra"),
            (["xor-experiment", "--extra=-1..1"], "--extra"),
            (["xor-experiment", "--extra", "2,-1"], "--extra"),
            (["xor-experiment", "--runs", "0"], "--runs"),
            (["xor-experiment", "--runs", "-3"], "--runs"),
            (["xor-experiment", "--k", "0"], "--k"),
            (["evaluate", "--set", "eval.beta=nan"], "beta"),
            (["evaluate", "--set", "eval.beta=inf"], "beta"),
            (["bootstrap", "--set", "eval.beta=nan"], "beta"),
            (["bootstrap", "--set", "eval.beta=-inf"], "beta"),
            (["train", "--task", "np-parse", "--set", "parser.np_levels=-2"],
             "parser.np_levels"),
            (["train", "--task", "full-parse", "--set", "parser.max_levels=-1"],
             "parser.max_levels"),
            (["train", "--task", "np-chunk", "--set", "chunker.representations="],
             "chunker.representations"),
            (["train", "--task", "np-chunk", "--set", "chunker.pass2.IOB1= "],
             "chunker.pass2.IOB1"),
            (["train", "--task", "typed-chunk", "--set", "chunker.default_type="],
             "chunker.default_type"),
            (["train", "--task", "full-parse", "--set", "parser.level_template="],
             "parser.level_template"),
            (["train", "--task", "np-chunk", "--set", "learner.k=0"], "learner.k"),
            (["train", "--task", "full-parse", "--set", "parser.k=0"], "parser.k"),
            (["evaluate", "--set", "eval.beta=1e200"], "beta"),
            (["bootstrap", "--set", "eval.beta=1e200"], "beta"),
        ],
    )
    def test_bad_value_is_one_error_line(self, argv, name, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a\tNN\tB-NP\n")
        paths = {"train": ["--train", str(corpus), "--model", str(tmp_path / "m")],
                 "evaluate": ["--found", str(corpus), "--gold", str(corpus)],
                 "bootstrap": ["--found", str(corpus), "--gold", str(corpus)],
                 "select-features": ["--train", str(corpus)],
                 "chunk": ["--model", str(tmp_path / "m"), "--input", str(corpus),
                           "--output", str(tmp_path / "out.txt")],
                 "xor-experiment": ["--runs", "1"]}
        # the flags under test come last, so that they win over the defaults
        code, lines = _main_exit([argv[0], *paths[argv[0]], *argv[1:]], monkeypatch, capsys)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert name in lines[0]

    def test_empty_value_in_a_config_file_is_one_error_line(self, tmp_path, monkeypatch,
                                                             capsys):
        (tmp_path / "run.ini").write_text("[chunker]\nrepresentations =\n")
        code, lines = _main_exit(
            ["train", "--task", "np-chunk", "--config", str(tmp_path / "run.ini"),
             "--train", str(tmp_path / "c.txt"), "--model", str(tmp_path / "m")],
            monkeypatch, capsys,
        )
        assert code == 1
        assert lines == ["error: invalid configuration: empty value of chunker.representations"]

    @pytest.mark.parametrize("task, key", [("np-parse", "parser.np_levels"),
                                           ("full-parse", "parser.max_levels")])
    def test_zero_levels_train_the_base_chunker_only(self, task, key, tmp_path, capsys):
        make = nested_np_corpus if task == "np-parse" else parse_corpus
        dump_tree_file(tmp_path / "train.txt", *make(20, seed=54))
        assert run_command(
            ["train", "--task", task, "--train", str(tmp_path / "train.txt"),
             "--model", str(tmp_path / "m"), "--set", f"{key}=0"]
        ) == 0
        load = bundles.load_np_parser if task == "np-parse" else bundles.load_full_parser
        assert load(tmp_path / "m").levels == []

    def test_non_utf8_corpus_is_io_error(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"caf\xe9\tNN\tB-NP\n")
        code, lines = _main_exit(
            ["evaluate", "--found", str(bad), "--gold", str(bad)], monkeypatch, capsys
        )
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("i/o error: ")

    def test_non_utf8_config_is_config_error(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[learner]\nk = \xe9\n")
        code, lines = _main_exit(
            ["xor-experiment", "--extra", "0", "--runs", "1", "--config", str(bad)],
            monkeypatch, capsys,
        )
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_every_schema_key_is_read(tmp_path, monkeypatch, capsys):
    """The command line reads every key the schema accepts, so no accepted
    key can silently do nothing."""
    seen = set()
    original = cfgmod.get

    def recording(cfg, section, key, default=None):
        seen.add((section, key))
        return original(cfg, section, key, default)

    monkeypatch.setattr(cfgmod, "get", recording)
    cli._learner_config({})
    cli._pipeline_config({})
    cli._workers(argparse.Namespace(workers=0), {})
    corpus = tmp_path / "c.txt"
    corpus.write_text("a\tNN\tB-NP\n")
    assert run_command(["evaluate", "--found", str(corpus), "--gold", str(corpus)]) == 0
    assert seen == {(s, k) for s, keys in cfgmod.SCHEMA.items() for k in keys}


@pytest.mark.parametrize(
    "task, generate", [("np-parse", nested_np_corpus), ("full-parse", parse_corpus)]
)
def test_parsers_honour_learner_section(task, generate, tmp_path):
    sentences, gold = generate(30, seed=47)
    dump_tree_file(tmp_path / "train.txt", sentences, gold)
    assert run_command(
        ["train", "--task", task, "--train", str(tmp_path / "train.txt"),
         "--model", str(tmp_path / "m"), "--workers", "1",
         "--set", "learner.tie_policy=lexicographic", "--set", "learner.fallback=false"]
    ) == 0
    manifest = json.loads((tmp_path / "m" / "manifest").read_text(encoding="utf-8"))
    models = list(model_objects(manifest))
    assert any(place.startswith("levels.") for place, _ in models)
    for place, model in models:
        assert model["tie_policy"] == "lexicographic", place
        assert model["fallback"] is False, place
        assert model["k"] == (1 if place.startswith("levels.") else 3), place


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle")
    tr_s, tr_g = np_chunk_corpus(15, seed=60)
    dump_chunk_file(d / "train.txt", tr_s, tr_g)
    assert run_command(
        ["train", "--task", "np-chunk", "--train", str(d / "train.txt"),
         "--model", str(d / "model"), "--workers", "1"]
    ) == 0
    return d


def _edited(change):
    """Damage that changes the manifest's data, then writes it out."""
    def damage(manifest):
        change(manifest)
        return json.dumps(manifest)
    return damage


def _pass1_model(value):
    """Damage that puts ``value``, no model object, where the IOB1 stream's
    first-pass model belongs."""
    return _edited(lambda m: m["streams"]["IOB1"].update(pass1_model=value))


# Damage to a chunker bundle's JSON manifest: each must end the load in one
# error line that names the bundle.
MANIFEST_DAMAGE = {
    "no class": _edited(lambda m: m.pop("class")),
    "no streams": _edited(lambda m: m.pop("streams")),
    "unknown stream scheme": _edited(lambda m: m["streams"].update(X=m["streams"].pop("O"))),
    "unknown representation": _edited(lambda m: m.update(representations=["IOB7"])),
    "representations not a list": _edited(lambda m: m.update(representations="IOB1")),
    "streams not an object": _edited(lambda m: m.update(streams=[])),
    "class the field does not allow": _edited(
        lambda m: m["streams"]["IOB1"].update({"class": "Chunker"})),
    "model in another directory": _pass1_model("../model/streams.IOB1.pass1_model.model"),
    "model name not ending in .model": _pass1_model("arrays.npy"),
    "model name not text": _pass1_model(3),
    "no representations": _edited(lambda m: m.update(representations=[])),
    "second pass without its template": _edited(
        lambda m: m["streams"]["O"].pop("pass2_template")),
    "template that does not parse": _edited(
        lambda m: m["streams"]["O"].update(pass1_template="w[0..")),
    "nested too deeply": lambda m: '{"format": 5, "streams": ' + "[" * 10**5 + "]" * 10**5 + "}",
}


def _labels_table(change):
    """Damage to the symbol table of a model's labels."""
    return lambda model, symbols: change(symbols[model["labels"][1]])


def _set(field, index, value):
    """Damage that sets item ``index`` of a model's ``field``."""
    return lambda model, symbols: model[field].__setitem__(index, value)


# Damage to the IOB1 stream's first-pass model object and the symbol tables
# it names: each must end the load in one error line that names the model
# or the table.
MODEL_DAMAGE = {
    "arity -arity two": lambda model, symbols: model["columns"].pop(),
    "k -k three": lambda model, symbols: model.update(k="three"),
    "fallback -fallback yes": lambda model, symbols: model.update(fallback="yes"),
    "tie-policy -tie-policy coin_flip": lambda model, symbols: model.update(
        tie_policy="coin_flip"),
    "weights -weights 0.5 heavy": _set("weights", 1, "heavy"),
    "classes -classes B\tmany": lambda model, symbols: model.update(counts=["B\tmany"]),
    "k true": lambda model, symbols: model.update(k=True),
    "k 1.5": lambda model, symbols: model.update(k=1.5),
    "weight NaN": _set("weights", 0, float("nan")),
    "weight Infinity": _set("weights", 0, float("inf")),
    "symbol not a string": _labels_table(lambda table: table.__setitem__(0, 7)),
    "repeated symbol": _labels_table(lambda table: table.__setitem__(1, table[0])),
    "negative table index": _set("labels", 1, -1),
    "table index out of range": lambda model, symbols: model["labels"].__setitem__(
        1, len(symbols)),
    "table index not an integer": _set("labels", 1, "0"),
    "span not offset,length": _set("labels", 0, "3"),
    "column not a pair": lambda model, symbols: model["columns"][0].append(0),
}


class TestBadBundles:
    """A damaged bundle ends with exit status 1 and one ``error:`` line."""

    def _chunk_exit(self, bundle, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv",
            ["mbparse", "chunk", "--model", str(bundle), "--input",
             str(tmp_path / "train.txt"), "--output", str(tmp_path / "out.txt"),
             "--workers", "1"],
        )
        with pytest.raises(SystemExit) as err:
            main()
        lines = capsys.readouterr().err.splitlines()
        assert err.value.code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize("case", list(MODEL_DAMAGE))
    def test_bad_model_header(self, small_bundle, tmp_path, monkeypatch, capsys, case):
        bundle = shutil.copytree(small_bundle / "model", tmp_path / "model")
        shutil.copy(small_bundle / "train.txt", tmp_path / "train.txt")
        manifest = json.loads((bundle / "manifest").read_text())
        MODEL_DAMAGE[case](manifest["streams"]["IOB1"]["pass1_model"], manifest["symbols"])
        (bundle / "manifest").write_text(json.dumps(manifest))
        line = self._chunk_exit(bundle, tmp_path, monkeypatch, capsys)
        place = r"(streams\.IOB1\.pass1_model|symbols\.\d+)"  # the model or a table of it
        assert re.match(rf"error: {re.escape(str(bundle))}: {place}: ", line), line

    @pytest.mark.parametrize("case", list(MANIFEST_DAMAGE))
    def test_bad_manifest(self, small_bundle, tmp_path, monkeypatch, capsys, case):
        bundle = shutil.copytree(small_bundle / "model", tmp_path / "model")
        shutil.copy(small_bundle / "train.txt", tmp_path / "train.txt")
        manifest = json.loads((bundle / "manifest").read_text())
        (bundle / "manifest").write_text(MANIFEST_DAMAGE[case](manifest))
        line = self._chunk_exit(bundle, tmp_path, monkeypatch, capsys)
        assert line.startswith(f"error: {bundle}: "), line


def _child_env():
    """The environment of a child ``python -m mbparse.cli``: this package on
    the path, and one BLAS thread so that the child starts no thread pool."""
    src = str(Path(mbparse.__file__).resolve().parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_entry_point_prints_usage():
    done = subprocess.run(
        [sys.executable, "-m", "mbparse.cli", "--help"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: mbparse")


def test_even_representation_count_is_one_warning_line(toy, tmp_path):
    # the warning once came out as Python's "<string>:14: UserWarning: ..."
    done = subprocess.run(
        [sys.executable, "-m", "mbparse.cli", "train", "--task", "np-chunk",
         "--train", str(toy / "train.txt"), "--model", str(tmp_path / "model"),
         "--set", "chunker.representations=IOB1 IOE2", "--workers", "1"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "warning: even number of representations; majority voting prefers odd"
    ]


def test_warning_made_an_error_is_one_error_line(toy, tmp_path):
    # with -W error the warning is raised, and once ended in a traceback
    done = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-m", "mbparse.cli", "train",
         "--task", "np-chunk", "--train", str(toy / "train.txt"),
         "--model", str(tmp_path / "model"),
         "--set", "chunker.representations=IOB1 IOE2", "--workers", "1"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.splitlines() == [
        "error: even number of representations; majority voting prefers odd"
    ]


@pytest.mark.parametrize("old", ["1", "2", "3"])
def test_old_bundle_format_is_one_error_line(old, small_bundle, tmp_path, capsys, monkeypatch):
    # bundles saved before the models stored codes (1), before a bundle
    # stored its arrays in one file (2), or with an INI manifest (3), must be
    # retrained
    bundle = shutil.copytree(small_bundle / "model", tmp_path / "model")
    (bundle / "manifest").write_text(f"[bundle]\nformat = {old}\nkind = chunker\n")
    monkeypatch.setattr(
        sys, "argv",
        ["mbparse", "chunk", "--model", str(bundle), "--input",
         str(small_bundle / "train.txt"), "--output", str(tmp_path / "out.txt"),
         "--workers", "1"],
    )
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bundle}: unsupported bundle format"
    ]


@pytest.fixture(scope="module")
def import_peak_bytes():
    """Peak address space of a child that has imported the command line."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import mbparse.cli\n"
         "print(*[l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak:')])"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    if done.returncode != 0 or not done.stdout.strip():
        pytest.skip("no /proc/self/status to read the address space from")
    return int(done.stdout) * 1024


@pytest.mark.parametrize("headroom_mib", [2, 8, 32, 256])
@pytest.mark.parametrize("command", TAG_COMMANDS)
def test_tag_command_under_an_address_space_limit(command, headroom_mib, tag_bundles,
                                                  import_peak_bytes, tmp_path):
    """A tag command whose memory runs out ends in one error line, never a
    traceback or a kill; with enough memory it writes what it writes
    without a limit.  The limit leaves the child room to import itself."""
    resource = pytest.importorskip("resource")
    model, corpus = tag_bundles[command]
    argv = [command, "--model", str(model), "--input", str(corpus), "--workers", "1"]
    assert run_command(argv + ["--output", str(tmp_path / "free.txt")]) == 0
    limit = import_peak_bytes + headroom_mib * 2**20

    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    limited = subprocess.run(
        [sys.executable, "-m", "mbparse.cli", *argv, "--output", str(tmp_path / "limited.txt")],
        capture_output=True, text=True, env=_child_env(), timeout=120, preexec_fn=set_limit,
    )
    if limited.returncode == 0:
        assert (tmp_path / "limited.txt").read_bytes() == (tmp_path / "free.txt").read_bytes()
    else:
        assert limited.returncode == 1, limited.stderr
        lines = limited.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory"), limited.stderr


class TestMisalignedFiles:
    """``evaluate`` and ``bootstrap`` score sentence by sentence, so a found
    file whose sentences do not line up with gold's token for token ends in
    one ``error:`` line naming the first sentence that differs."""

    @pytest.mark.parametrize("command", ["evaluate", "bootstrap"])
    def test_first_differing_sentence_is_named(self, command, tmp_path, monkeypatch, capsys):
        found, gold = tmp_path / "found.txt", tmp_path / "gold.txt"
        found.write_text("a\tNN\tI\n\nc\tNN\tI\n")  # sentences of 1 and 1 tokens
        gold.write_text("a\tNN\tI\nb\tNN\tO\n\nc\tNN\tI\n")  # 2 and 1
        code, lines = _main_exit([command, "--found", str(found), "--gold", str(gold)],
                                 monkeypatch, capsys)
        assert code == 1
        assert lines == ["error: sentence 1 has 1 tokens in the found file but 2 in gold"]

    @pytest.mark.parametrize("command", ["evaluate", "bootstrap"])
    def test_later_sentence_of_a_tree_column(self, command, tmp_path, monkeypatch, capsys):
        found, gold = tmp_path / "found.txt", tmp_path / "gold.txt"
        header = "#columns: word pos tree\n"
        found.write_text(header + "a\tNN\t(S*S)\n\nb\tNN\t(S*\nc\tNN\t*S)\n")
        gold.write_text(header + "a\tNN\t(S*S)\n\nb\tNN\t(S*S)\n")
        code, lines = _main_exit([command, "--found", str(found), "--gold", str(gold),
                                  "--column", "tree"], monkeypatch, capsys)
        assert code == 1
        assert lines == ["error: sentence 2 has 2 tokens in the found file but 1 in gold"]

    def test_aligned_files_still_score(self, tmp_path, capsys):
        found = tmp_path / "found.txt"
        found.write_text("a\tNN\tI\nb\tNN\tO\n\nc\tNN\tI\n")
        assert run_command(["evaluate", "--found", str(found), "--gold", str(found)]) == 0
        assert capsys.readouterr().out.strip() == "precision 100.00% recall 100.00% F 100.00"


@pytest.mark.parametrize("command", ["evaluate", "bootstrap", "select-features"])
def test_paired_scheme_on_a_tag_column_is_one_error_line(command, tmp_path, monkeypatch,
                                                         capsys):
    # O+C tags are (open, close) pairs, which one column cannot hold; this
    # once ended in a ValueError traceback
    corpus = tmp_path / "c.txt"
    corpus.write_text("a\tNN\t(\nb\tNN\t)\n")
    files = (["--train", str(corpus)] if command == "select-features"
             else ["--found", str(corpus), "--gold", str(corpus)])
    code, lines = _main_exit([command, "--scheme", "O+C", *files], monkeypatch, capsys)
    assert code == 1
    assert lines == ["error: O+C tags are (open, close) pairs, not one tag per token"]
