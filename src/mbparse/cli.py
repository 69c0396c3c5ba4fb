"""Batch command line: train, tag, parse, evaluate, combine, experiment.

Every command is driven by an optional configuration file plus flags (flags
win).  Exit codes: 0 success, 1 domain or configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys

from . import bundles, config as cfgmod
from .combine import (
    CombineMethod,
    CombinerWeights,
    SystemOutputs,
    build_stacked_instances,
    fit_weights,
    save_weights,
    vote_sequence,
)
from .corpus import (
    column_index,
    decode_bracket_column,
    decode_clause_column,
    encode_bracket_column,
    encode_clause_column,
    read_corpus,
    to_tokens,
    write_corpus,
)
from .errors import ConfigError, CorpusError, DomainError
from .evaluate import EvalConfig, bootstrap, format_report, report_lines, score
from .features import format_template, parse_template, select_features
from .learner import LearnerConfig, TiePolicy, classify_labels, train as train_model
from .pipeline import (
    PipelineConfig,
    TypeStrategy,
    chunk_np,
    chunk_typed,
    identify_clauses,
    parse_full,
    parse_np,
    tag_sentences,
    train_chunker,
    train_clause_bracketer,
    train_full_parser,
    train_np_parser,
    train_tagger,
    train_typed_chunker,
)
from .schemes import Scheme, decode, encode
from .xor import xor_experiment

_TASKS = ("np-chunk", "typed-chunk", "clauses", "np-parse", "full-parse")
_SCHEMES = [s.value for s in Scheme]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mbparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file (INI sections)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one configuration value",
        )
        p.add_argument("--workers", type=int, default=0,
                       help="sentence-level parallelism (default: all cores)")

    p = sub.add_parser("train", help="train a model bundle")
    common(p)
    p.add_argument("--task", choices=_TASKS, required=True)
    p.add_argument("--train", required=True, metavar="CORPUS")
    p.add_argument("--model", required=True, metavar="DIR")

    for name, help_text in (
        ("chunk", "tag noun phrase chunks"),
        ("chunk-typed", "tag typed chunks"),
        ("clauses", "add clause brackets"),
        ("parse-np", "parse nested noun phrases"),
        ("parse", "full parse"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--model", required=True, metavar="DIR")
        p.add_argument("--input", required=True, metavar="CORPUS")
        p.add_argument("--output", required=True, metavar="FILE")
        if name in ("chunk", "chunk-typed"):
            p.add_argument("--scheme", default="IOB1",
                           choices=[s.value for s in Scheme if s is not Scheme.OC])

    p = sub.add_parser("evaluate", help="score found against gold")
    common(p)
    p.add_argument("--found", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--column", default="chunk", choices=["chunk", "tree", "clause"])
    p.add_argument("--scheme", default="IOB1", choices=_SCHEMES)
    p.add_argument("--per-type", action="store_true")
    p.add_argument("--machine", action="store_true", help="line-format output")

    p = sub.add_parser("bootstrap", help="resampling significance bounds")
    common(p)
    p.add_argument("--found", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--column", default="chunk", choices=["chunk", "tree", "clause"])
    p.add_argument("--scheme", default="IOB1", choices=_SCHEMES)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--tail", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("select-features", help="wrapper feature selection")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--scheme", default="IOB1", choices=_SCHEMES)
    p.add_argument("--candidates", default="w[-2..2] p[-2..2]")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--folds", type=int, default=5)

    p = sub.add_parser("combine", help="combine aligned tag files")
    common(p)
    p.add_argument("--method", default="majority",
                   choices=[m.value for m in CombineMethod] + ["mbl"])
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--tuning-inputs", nargs="*", default=[])
    p.add_argument("--tuning-gold")
    p.add_argument("--output", required=True)
    p.add_argument("--weights-out")

    p = sub.add_parser("xor-experiment", help="random-feature tolerance table")
    common(p)
    p.add_argument("--extra", default="0..10", help="N, N..M or comma list")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    return parser


def _load_cfg(args) -> cfgmod.Config:
    cfg = cfgmod.load_config(args.config) if args.config else {}
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set {item!r} is not SECTION.KEY=VALUE")
        overrides[key] = value
    return cfgmod.apply_overrides(cfg, overrides)


def _learner_config(cfg) -> LearnerConfig:
    return LearnerConfig(
        k=cfgmod.get_int(cfg, "learner", "k", 3),
        tie_policy=cfgmod.to_enum(
            TiePolicy,
            cfgmod.get(cfg, "learner", "tie_policy", "global_class_frequency"),
            "learner.tie_policy",
        ),
        degenerate_weight_fallback=cfgmod.get_bool(cfg, "learner", "fallback", True),
    )


def _pipeline_config(cfg) -> PipelineConfig:
    kwargs = {}
    reps = cfgmod.get(cfg, "chunker", "representations")
    if reps:
        kwargs["representations"] = tuple(
            cfgmod.to_enum(Scheme, r, "chunker.representations") for r in reps.split()
        )
    strategy = cfgmod.get(cfg, "chunker", "type_strategy")
    if strategy:
        kwargs["type_strategy"] = cfgmod.to_enum(
            TypeStrategy, strategy, "chunker.type_strategy"
        )
    default_type = cfgmod.get(cfg, "chunker", "default_type")
    if default_type:
        kwargs["default_type"] = default_type
    pass1 = dict(PipelineConfig().pass1_templates)
    pass2 = dict(PipelineConfig().pass2_templates)
    changed = False
    for scheme in Scheme:
        if scheme is Scheme.OC:
            continue
        t1 = cfgmod.get(cfg, "chunker", f"pass1.{scheme.value}")
        t2 = cfgmod.get(cfg, "chunker", f"pass2.{scheme.value}")
        if t1:
            pass1[scheme] = parse_template(t1)
            changed = True
        if t2:
            pass2[scheme] = parse_template(t2)
            changed = True
    if changed:
        kwargs["pass1_templates"] = pass1
        kwargs["pass2_templates"] = pass2
    kwargs["k_parse"] = cfgmod.get_int(cfg, "parser", "k", 1)
    kwargs["max_parse_levels"] = cfgmod.get_int(cfg, "parser", "max_levels", 19)
    kwargs["np_parse_levels"] = cfgmod.get_int(cfg, "parser", "np_levels", 6)
    level_t = cfgmod.get(cfg, "parser", "level_template")
    if level_t:
        kwargs["level_template"] = parse_template(level_t)
    return PipelineConfig(**kwargs)


def _read_spans(path, column: str, scheme: str):
    sentences, columns = read_corpus(path)
    idx = column_index(columns, column)
    tokens = [to_tokens(s, columns, with_chunks=False) for s in sentences]
    spans = []
    for sent in sentences:
        cells = [row[idx] for row in sent]
        if column == "chunk":
            spans.append(decode(cells, Scheme(scheme)))
        else:
            spans.append(decode_bracket_column(cells))
    return tokens, spans


def _workers(args, cfg) -> int:
    if args.workers > 0:
        return args.workers
    return cfgmod.get_int(cfg, "run", "workers", os.cpu_count() or 1)


_block_tagger = None  # set in each forked worker by _map_blocks


def _set_block_tagger(fn) -> None:
    global _block_tagger
    _block_tagger = fn


def _tag_block(block):
    return _block_tagger(block)


def _map_blocks(fn, sentences, workers: int):
    """Apply fn to contiguous sentence blocks, optionally in processes.
    Output order equals input order either way.  Forked workers inherit fn,
    so the model it holds is never pickled; only blocks and results are."""
    if workers <= 1 or len(sentences) < 4 * workers:
        return fn(sentences)
    size = (len(sentences) + workers - 1) // workers
    blocks = [sentences[i : i + size] for i in range(0, len(sentences), size)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(len(blocks), initializer=_set_block_tagger, initargs=(fn,)) as pool:
        parts = pool.map(_tag_block, blocks)
    out = []
    for part in parts:
        out.extend(part)
    return out


# ---------------------------------------------------------------------------
# Commands.


def _cmd_train(args, cfg) -> int:
    pcfg = _pipeline_config(cfg)
    lcfg = _learner_config(cfg)
    if args.task == "np-chunk":
        sentences, gold = _read_spans(args.train, "chunk", "IOB1")
        chunker = train_chunker(sentences, gold, pcfg, lcfg)
        bundles.save_chunker(chunker, args.model)
    elif args.task == "typed-chunk":
        sentences, gold = _read_spans(args.train, "chunk", "IOB1")
        chunker = train_typed_chunker(sentences, gold, pcfg.type_strategy, pcfg, lcfg)
        bundles.save_typed_chunker(chunker, args.model)
    elif args.task == "clauses":
        raw, columns = read_corpus(args.train)
        clause_idx = column_index(columns, "clause")
        sentences = [to_tokens(s, columns) for s in raw]
        forests = [decode_clause_column([row[clause_idx] for row in s]) for s in raw]
        bracketer = train_clause_bracketer(sentences, forests, learner_config=lcfg)
        bundles.save_clause_bracketer(bracketer, args.model)
    elif args.task == "np-parse":
        sentences, gold = _read_spans(args.train, "tree", "IOB1")
        parser = train_np_parser(sentences, gold, pcfg, lcfg)
        bundles.save_np_parser(parser, args.model)
    else:  # full-parse
        sentences, gold = _read_spans(args.train, "tree", "IOB1")
        parser = train_full_parser(sentences, gold, pcfg, lcfg)
        bundles.save_full_parser(parser, args.model)
    print(f"saved {args.task} bundle to {args.model}")
    return 0


def _cmd_chunk(args, cfg, typed: bool) -> int:
    raw, columns = read_corpus(args.input)
    sentences = [to_tokens(s, columns, with_chunks=False) for s in raw]
    if typed:
        chunker = bundles.load_typed_chunker(args.model)
        tagger = lambda block: chunk_typed(block, chunker)
    else:
        chunker = bundles.load_chunker(args.model)
        tagger = lambda block: chunk_np(block, chunker)
    spans = _map_blocks(tagger, sentences, _workers(args, cfg))
    scheme = Scheme(args.scheme)
    out = []
    for sent, found in zip(sentences, spans):
        tags = encode(found, scheme, len(sent), typed=typed)
        out.append([(t.word, t.pos, tag) for t, tag in zip(sent, tags)])
    write_corpus(out, args.output, columns=("word", "pos", "chunk"))
    return 0


def _cmd_clauses(args, cfg) -> int:
    raw, columns = read_corpus(args.input)
    sentences = [to_tokens(s, columns) for s in raw]
    bracketer = bundles.load_clause_bracketer(args.model)
    forests = _map_blocks(
        lambda block: identify_clauses(block, bracketer), sentences, _workers(args, cfg)
    )
    out = []
    for sent, forest in zip(sentences, forests):
        cells = encode_clause_column(forest, len(sent))
        out.append(
            [
                (t.word, t.pos, t.chunk_tag or "O", c)
                for t, c in zip(sent, cells)
            ]
        )
    write_corpus(out, args.output, columns=("word", "pos", "chunk", "clause"))
    return 0


def _cmd_parse(args, cfg, full: bool) -> int:
    raw, columns = read_corpus(args.input)
    sentences = [to_tokens(s, columns, with_chunks=False) for s in raw]
    if full:
        parser = bundles.load_full_parser(args.model)
        runner = lambda block: parse_full(block, parser)
    else:
        parser = bundles.load_np_parser(args.model)
        runner = lambda block: parse_np(block, parser)
    spans = _map_blocks(runner, sentences, _workers(args, cfg))
    out = []
    for sent, found in zip(sentences, spans):
        cells = encode_bracket_column(found, len(sent))
        out.append([(t.word, t.pos, c) for t, c in zip(sent, cells)])
    write_corpus(out, args.output, columns=("word", "pos", "tree"))
    return 0


def _cmd_evaluate(args, cfg) -> int:
    _, found = _read_spans(args.found, args.column, args.scheme)
    _, gold = _read_spans(args.gold, args.column, args.scheme)
    econf = EvalConfig(beta=cfgmod.get_float(cfg, "eval", "beta", 1.0))
    report = score(found, gold, econf)
    if args.machine:
        for line in report_lines(report):
            print(line)
    elif args.per_type:
        print(format_report(report))
    else:
        print(
            f"precision {report.precision:.2f}% recall {report.recall:.2f}% "
            f"F {report.f:.2f}"
        )
    return 0


def _cmd_bootstrap(args, cfg) -> int:
    _, found = _read_spans(args.found, args.column, args.scheme)
    _, gold = _read_spans(args.gold, args.column, args.scheme)
    econf = EvalConfig(
        bootstrap_samples=args.samples, tail=args.tail, seed=args.seed
    )
    rep = bootstrap(found, gold, econf)
    print(f"point F {rep.point:.2f}")
    print(f"mean {rep.mean:.2f} stddev {rep.stddev:.2f}")
    print(f"bounds [{rep.lower:.2f}, {rep.upper:.2f}] at tail {args.tail}")
    return 0


def _cmd_select(args, cfg) -> int:
    folds = args.folds
    if folds < 2:
        raise ConfigError(f"--folds must be at least 2, got {folds}")
    sentences, gold = _read_spans(args.train, "chunk", args.scheme)
    scheme = Scheme(args.scheme)
    tags = [encode(g, scheme, len(s), typed=False) for s, g in zip(sentences, gold)]
    lcfg = _learner_config(cfg)

    def evaluate(template) -> float:
        if template.arity == 0:
            return 0.0
        total_f = 0.0
        for f in range(folds):
            train_idx = [i for i in range(len(sentences)) if i % folds != f]
            test_idx = [i for i in range(len(sentences)) if i % folds == f]
            model = train_tagger(
                template,
                [sentences[i] for i in train_idx],
                [tags[i] for i in train_idx],
                lcfg,
            )
            found_tags = tag_sentences(model, template, [sentences[i] for i in test_idx])
            found = [decode(t, scheme) for t in found_tags]
            total_f += score(found, [gold[i] for i in test_idx]).f
        return total_f / folds

    candidates = sorted(parse_template(args.candidates).atoms())
    report = select_features(candidates, evaluate, beam=args.beam)
    print(f"best set: {format_template(report.best_set) or '(empty)'}")
    print(f"score: {report.best_score:.2f}")
    print(f"templates evaluated: {len(report.score_history)}")
    return 0


def _read_tag_column(path):
    sentences, columns = read_corpus(path)
    idx = column_index(columns, "chunk")
    return [tuple(row[idx] for row in s) for s in sentences]


def _cmd_combine(args, cfg) -> int:
    per_system = [_read_tag_column(p) for p in args.inputs]
    lengths = [tuple(len(s) for s in sys_tags) for sys_tags in per_system]
    if len(set(lengths)) != 1:
        raise DomainError("input tag files are not aligned")
    flat = [tuple(t for s in sys_tags for t in s) for sys_tags in per_system]

    tuning = None
    if args.method != CombineMethod.MAJORITY.value:
        if not args.tuning_inputs or not args.tuning_gold:
            raise DomainError(f"{args.method} needs --tuning-inputs and --tuning-gold")
        tune_sys = [_read_tag_column(p) for p in args.tuning_inputs]
        tune_gold = _read_tag_column(args.tuning_gold)
        tuning = SystemOutputs(
            systems=tuple(tuple(t for s in st for t in s) for st in tune_sys),
            gold=tuple(t for s in tune_gold for t in s),
        )

    if args.method == "mbl":
        model = train_model(build_stacked_instances(tuning), _learner_config(cfg))
        queries = SystemOutputs(systems=tuple(flat))
        voted = classify_labels(model, build_stacked_instances(queries))
    else:
        method = CombineMethod(args.method)
        if method is CombineMethod.MAJORITY:
            weights = CombinerWeights(method=method)
        else:
            weights = fit_weights(tuning, method)
            if args.weights_out:
                save_weights(weights, args.weights_out)
        voted = vote_sequence(SystemOutputs(systems=tuple(flat)), weights, method)

    # re-split to sentences, attach to the first input's tokens
    sentences, columns = read_corpus(args.inputs[0])
    out, pos = [], 0
    for s in sentences:
        rows = []
        for row in s:
            rows.append((row[0], row[1], voted[pos]))
            pos += 1
        out.append(rows)
    write_corpus(out, args.output, columns=("word", "pos", "chunk"))
    return 0


def _parse_extra(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--extra {text!r} is not N, N..M or a comma list") from None


def _cmd_xor(args, cfg) -> int:
    print("extra\tmean_correct")
    for extra in _parse_extra(args.extra):
        mean = xor_experiment(extra, runs=args.runs, seed=args.seed, k=args.k)
        print(f"{extra}\t{mean:.2f}")
    return 0


def run_command(argv: list[str]) -> int:
    """Parse and execute one command; returns the exit status."""
    args = _build_parser().parse_args(argv)
    cfg = _load_cfg(args)
    command = args.command
    if command == "train":
        return _cmd_train(args, cfg)
    if command == "chunk":
        return _cmd_chunk(args, cfg, typed=False)
    if command == "chunk-typed":
        return _cmd_chunk(args, cfg, typed=True)
    if command == "clauses":
        return _cmd_clauses(args, cfg)
    if command == "parse-np":
        return _cmd_parse(args, cfg, full=False)
    if command == "parse":
        return _cmd_parse(args, cfg, full=True)
    if command == "evaluate":
        return _cmd_evaluate(args, cfg)
    if command == "bootstrap":
        return _cmd_bootstrap(args, cfg)
    if command == "select-features":
        return _cmd_select(args, cfg)
    if command == "combine":
        return _cmd_combine(args, cfg)
    if command == "xor-experiment":
        return _cmd_xor(args, cfg)
    raise ConfigError(f"unknown command {command!r}")


def main() -> None:
    try:
        status = run_command(sys.argv[1:])
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    except (OSError, CorpusError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
