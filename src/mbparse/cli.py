"""Batch command line: train, tag, parse, evaluate, combine, experiment.

Every command is driven by an optional configuration file plus flags (flags
win).  Exit codes: 0 success, 1 domain or configuration error or out of
memory, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import multiprocessing
import os
import sys
import warnings

from . import bundles, config as cfgmod
from .combine import (
    CombineMethod,
    CombinerWeights,
    SystemOutputs,
    build_stacked_instances,
    fit_weights,
    vote_sequence,
)
from . import corpus
from .corpus import (
    bracket_spans,
    encode_bracket_column,
    token_cells,
    write_corpus,
)
from .errors import ConfigError, CorpusError, DomainError
from .evaluate import EvalConfig, bootstrap, format_report, report_lines, score
from .features import CodedCorpus, format_template, parse_template, select_features
from .folds import CrossValidation, LeakMode, build_fold_plan
from .learner import LearnerConfig, Model, TiePolicy, classify_labels, train as train_model
from .pipeline import (
    DEFAULT_PASS1,
    DEFAULT_PASS2,
    PipelineConfig,
    TypeStrategy,
    chunk_np,
    chunk_typed,
    identify_clauses,
    parse_full,
    parse_np,
    train_chunker,
    train_clause_bracketer,
    train_full_parser,
    train_np_parser,
    train_typed_chunker,
)
from .schemes import Scheme, SpanArrays, decode_tags, tag_codes
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
                       help="processes that tag blocks of sentences; read by chunk, "
                            "chunk-typed, clauses, parse-np and parse only "
                            "(0: run.workers, else all cores)")

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
        k=cfgmod.get_int(cfg, "learner", "k", 3, minimum=1),
        tie_policy=cfgmod.to_enum(
            TiePolicy,
            cfgmod.get(cfg, "learner", "tie_policy", "global_class_frequency"),
            "learner.tie_policy",
        ),
        degenerate_weight_fallback=cfgmod.get_bool(cfg, "learner", "fallback", True),
    )


def _eval_config(cfg, **options) -> EvalConfig:
    return EvalConfig(beta=cfgmod.get_float(cfg, "eval", "beta", 1.0), **options)


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
    for name, defaults in (("pass1", DEFAULT_PASS1), ("pass2", DEFAULT_PASS2)):
        templates = kwargs[f"{name}_templates"] = dict(defaults)
        for scheme in defaults:
            raw = cfgmod.get(cfg, "chunker", f"{name}.{scheme.value}")
            if raw:
                templates[scheme] = parse_template(raw)
    kwargs["k_parse"] = cfgmod.get_int(cfg, "parser", "k", 1, minimum=1)
    # 0 levels: the base chunker only
    kwargs["max_parse_levels"] = cfgmod.get_int(cfg, "parser", "max_levels", 19, minimum=0)
    kwargs["np_parse_levels"] = cfgmod.get_int(cfg, "parser", "np_levels", 6, minimum=0)
    level_t = cfgmod.get(cfg, "parser", "level_template")
    if level_t:
        kwargs["level_template"] = parse_template(level_t)
    return PipelineConfig(**kwargs)


def _read_tokens(path, with_chunks: bool = False):
    """A corpus file, and its tokens as a coded corpus."""
    file, _ = corpus.read_corpus(path)
    return file, CodedCorpus(lengths=file.lengths, cells=token_cells(file, with_chunks))


def _gold_spans(file, column: str, scheme: str) -> SpanArrays:
    """The gold spans of a corpus file's ``column``: a chunk column's under
    ``scheme``, or a bracket column's."""
    if column == "chunk":
        return decode_tags(file.column(column), file.lengths, Scheme(scheme))
    return bracket_spans(file, column)


def _found_and_gold(args):
    """The found and the gold spans of ``evaluate`` and ``bootstrap``, one
    span list per sentence; the files' sentences must be of equal lengths."""
    (found_file, found), (gold_file, gold) = (
        (file, _gold_spans(file, args.column, args.scheme))
        for file, _ in map(corpus.read_corpus, (args.found, args.gold))
    )
    for i, (m, n) in enumerate(zip(found_file.lengths, gold_file.lengths)):
        if m != n:
            raise DomainError(f"sentence {i + 1} has {m} tokens in the found file but {n} in gold")
    return found.lists(), gold.lists()


def _sentence_rows(file, extra):
    """Rows of each sentence of ``file``: its word and POS cells, then the
    cells of each column of ``extra`` (token after token)."""
    cells = list(zip(file.column("word"), file.column("pos"), *extra))
    return [cells[a:b] for a, b in file.bounds]


def _workers(args, cfg) -> int:
    """``--workers``, or where it is 0 (unset) ``run.workers``, or all cores."""
    if args.workers < 0:
        raise ConfigError(f"--workers must be at least 0, got {args.workers}")
    return args.workers or cfgmod.get_int(cfg, "run", "workers", os.cpu_count() or 1, minimum=1)


_block_tagger = None  # (tag, bundle), set in each forked worker by _map_blocks


def _set_block_tagger(tag, bundle) -> None:
    global _block_tagger
    _block_tagger = (tag, bundle)


def _tag_block(block):
    tag, bundle = _block_tagger
    return tag(block, bundle)


def _models_in(obj):
    """Every learner model reachable from a loaded bundle."""
    if isinstance(obj, Model):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _models_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _models_in(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _models_in(value)


def _map_blocks(tag, bundle, sentences: CodedCorpus, workers: int):
    """Apply ``tag(block, bundle)`` to contiguous sentence blocks, optionally
    in processes.  Output order equals input order either way.  Forked
    workers inherit the bundle, so it is never pickled; only blocks (coded
    corpora, which hold codes only) and results are.  Before forking, every
    model in the bundle builds its query index, so the workers share one
    copy instead of each building its own."""
    n = len(sentences)
    if workers <= 1 or n < 4 * workers:
        return tag(sentences, bundle)
    for model in _models_in(bundle):
        model._index
    size = (n + workers - 1) // workers
    blocks = [sentences.take(range(i, min(i + size, n))) for i in range(0, n, size)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(
        len(blocks), initializer=_set_block_tagger, initargs=(tag, bundle)
    ) as pool:
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
    column = {"np-chunk": "chunk", "typed-chunk": "chunk", "clauses": "clause"}.get(args.task, "tree")
    file, sentences = _read_tokens(args.train, with_chunks=args.task == "clauses")
    gold = _gold_spans(file, column, "IOB1")
    if args.task == "np-chunk":
        bundles.save_chunker(train_chunker(sentences, gold, pcfg, lcfg), args.model)
    elif args.task == "typed-chunk":
        chunker = train_typed_chunker(sentences, gold, pcfg.type_strategy, pcfg, lcfg)
        bundles.save_typed_chunker(chunker, args.model)
    elif args.task == "clauses":
        bracketer = train_clause_bracketer(sentences, gold, learner_config=lcfg)
        bundles.save_clause_bracketer(bracketer, args.model)
    elif args.task == "np-parse":
        bundles.save_np_parser(train_np_parser(sentences, gold, pcfg, lcfg), args.model)
    else:  # full-parse
        bundles.save_full_parser(train_full_parser(sentences, gold, pcfg, lcfg), args.model)
    print(f"saved {args.task} bundle to {args.model}")
    return 0


def _cmd_chunk(args, cfg, typed: bool) -> int:
    file, sentences = _read_tokens(args.input)
    if typed:
        chunker = bundles.load_typed_chunker(args.model)
        spans = _map_blocks(chunk_typed, chunker, sentences, args.workers)
    else:
        chunker = bundles.load_chunker(args.model)
        spans = _map_blocks(chunk_np, chunker, sentences, args.workers)
    table, codes = tag_codes(SpanArrays.of(spans, file.lengths), Scheme(args.scheme), typed)
    tags = list(table)
    rows = _sentence_rows(file, [[tags[c] for c in codes.tolist()]])
    write_corpus(rows, args.output, columns=("word", "pos", "chunk"))
    return 0


def _cmd_clauses(args, cfg) -> int:
    file, sentences = _read_tokens(args.input, with_chunks=True)
    bracketer = bundles.load_clause_bracketer(args.model)
    clauses = _map_blocks(identify_clauses, bracketer, sentences, args.workers)
    chunks = [tag or "O" for tag in sentences.tags("c")]
    cells = [c for s, n in zip(clauses, file.lengths) for c in encode_bracket_column(s, n)]
    rows = _sentence_rows(file, [chunks, cells])
    write_corpus(rows, args.output, columns=("word", "pos", "chunk", "clause"))
    return 0


def _cmd_parse(args, cfg, full: bool) -> int:
    file, sentences = _read_tokens(args.input)
    if full:
        parser = bundles.load_full_parser(args.model)
        spans = _map_blocks(parse_full, parser, sentences, args.workers)
    else:
        parser = bundles.load_np_parser(args.model)
        spans = _map_blocks(parse_np, parser, sentences, args.workers)
    cells = [c for found, n in zip(spans, file.lengths) for c in encode_bracket_column(found, n)]
    write_corpus(_sentence_rows(file, [cells]), args.output, columns=("word", "pos", "tree"))
    return 0


def _cmd_evaluate(args, cfg) -> int:
    report = score(*_found_and_gold(args), _eval_config(cfg))
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
    econf = _eval_config(cfg, bootstrap_samples=args.samples, tail=args.tail, seed=args.seed)
    rep = bootstrap(*_found_and_gold(args), econf)
    print(f"point F {rep.point:.2f}")
    print(f"mean {rep.mean:.2f} stddev {rep.stddev:.2f}")
    print(f"bounds [{rep.lower:.2f}, {rep.upper:.2f}] at tail {args.tail}")
    return 0


def _cmd_select(args, cfg) -> int:
    folds = args.folds
    if folds < 2:
        raise ConfigError(f"--folds must be at least 2, got {folds}")
    candidates = sorted(parse_template(args.candidates).atoms())
    if any(channel == "c" for channel, _ in candidates):
        # one tagging pass has no predicted chunk tags to read
        raise ConfigError(f"--candidates {args.candidates!r}: chunk-context atoms c[...] "
                          "are not supported")
    file, sentences = _read_tokens(args.train)
    gold = _gold_spans(file, "chunk", args.scheme).lists()
    if folds > len(sentences):  # a fold would test nothing and score F 0
        raise ConfigError(f"--folds {folds} exceeds the {len(sentences)} training sentences")
    scheme = Scheme(args.scheme)
    lcfg = _learner_config(cfg)
    econf = _eval_config(cfg)
    # sentence i is in section i % folds; each fold is cut once, for every template
    sections = [range(f, len(sentences), folds) for f in range(folds)]
    plan = build_fold_plan(folds, LeakMode.GOLD_IN_TRAIN)
    cv = CrossValidation(sentences, gold, scheme, sections, plan)
    held_out = [([sentences.lengths[i] for i in s], [gold[i] for i in s]) for s in sections]

    def evaluate(template) -> float:
        if template.arity == 0:
            return 0.0
        results = cv.run(template, lcfg)
        found = ([t for tags in results[f].tags for t in tags] for f in range(folds))
        return sum(score(decode_tags(tags, lengths, scheme).lists(), test_gold, econf).f
                   for tags, (lengths, test_gold) in zip(found, held_out)) / folds

    report = select_features(candidates, evaluate, beam=args.beam)
    print(f"best set: {format_template(report.best_set) or '(empty)'}")
    print(f"score: {report.best_score:.2f}")
    print(f"templates evaluated: {len(report.score_history)}")
    return 0


def _read_tag_column(path):
    """A tag file, and its chunk column's cells."""
    file, _ = corpus.read_corpus(path)
    return file, file.column("chunk")


def _cmd_combine(args, cfg) -> int:
    per_system = [_read_tag_column(p) for p in args.inputs]
    if len({tuple(file.lengths) for file, _ in per_system}) != 1:
        raise DomainError("input tag files are not aligned")
    flat = tuple(tags for _, tags in per_system)

    tuning = None
    if args.method != CombineMethod.MAJORITY.value:
        if not args.tuning_inputs or not args.tuning_gold:
            raise DomainError(f"{args.method} needs --tuning-inputs and --tuning-gold")
        tune_sys = [_read_tag_column(p)[1] for p in args.tuning_inputs]
        tuning = SystemOutputs(systems=tuple(tune_sys), gold=_read_tag_column(args.tuning_gold)[1])

    if args.method == "mbl":
        model = train_model(build_stacked_instances(tuning), _learner_config(cfg))
        queries = SystemOutputs(systems=flat)
        voted = classify_labels(model, build_stacked_instances(queries))
    else:
        method = CombineMethod(args.method)
        if method is CombineMethod.MAJORITY:
            weights = CombinerWeights(method=method)
        else:
            weights = fit_weights(tuning, method)
        voted = vote_sequence(SystemOutputs(systems=flat), weights, method)

    # attach to the first input's words and POS tags
    rows = _sentence_rows(per_system[0][0], [voted])
    write_corpus(rows, args.output, columns=("word", "pos", "chunk"))
    return 0


def _parse_extra(text: str) -> list[int]:
    try:
        lo, dots, hi = text.partition("..")
        extras = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",")]
    except ValueError:
        extras = []
    if not extras or min(extras) < 0:
        raise ConfigError(
            f"--extra {text!r} is not N, N..M with 0 <= N <= M, or a comma list of N >= 0"
        )
    return extras


def _cmd_xor(args, cfg) -> int:
    extras = _parse_extra(args.extra)
    for flag, value in (("--runs", args.runs), ("--k", args.k)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    print("extra\tmean_correct")
    for extra in extras:
        mean = xor_experiment(extra, runs=args.runs, seed=args.seed, k=args.k)
        print(f"{extra}\t{mean:.2f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "chunk": functools.partial(_cmd_chunk, typed=False),
    "chunk-typed": functools.partial(_cmd_chunk, typed=True),
    "clauses": _cmd_clauses,
    "parse-np": functools.partial(_cmd_parse, full=False),
    "parse": functools.partial(_cmd_parse, full=True),
    "evaluate": _cmd_evaluate,
    "bootstrap": _cmd_bootstrap,
    "select-features": _cmd_select,
    "combine": _cmd_combine,
    "xor-experiment": _cmd_xor,
}


def run_command(argv: list[str]) -> int:
    """Parse and execute one command; returns the exit status."""
    args = _build_parser().parse_args(argv)
    cfg = _load_cfg(args)
    args.workers = _workers(args, cfg)
    return _COMMANDS[args.command](args, cfg)


def main() -> None:
    try:
        with warnings.catch_warnings(record=True) as caught:
            status = run_command(sys.argv[1:])
        # a run that succeeds states each warning once, without source lines
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    except (ConfigError, DomainError, Warning) as exc:  # -W error raises warnings
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    except (OSError, CorpusError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        status = 2
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
