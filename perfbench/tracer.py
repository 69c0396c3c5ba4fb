"""Spans around calls into mbparse's public functions, recorded from outside.

A ``Tracer`` replaces each target function with a wrapper that records a span
(name, start, end, parent) and, for some targets, bumps counters computed
from the call's arguments or result.  ``from ... import name`` binds a name
in every importing module, so ``install`` swaps the wrapper in wherever the
original function object is bound in an ``mbparse`` module; methods are
swapped on their classes.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_classify(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    queries = len(_arg(args, kwargs, 1, "queries"))
    counts["learner.queries"] += queries
    counts["learner.query_pairs"] += queries * len(model.instances)


def _count_train(counts, args, kwargs, result):
    counts["learner.train_instances"] += len(_arg(args, kwargs, 0, "dataset"))


def _count_balance(counts, args, kwargs, result):
    opens = _arg(args, kwargs, 0, "opens")
    counts["schemes.opens_offered"] += sum(1 for mark in opens if mark is not None)
    counts["schemes.spans_returned"] += len(result)


def _count_vote(counts, args, kwargs, result):
    if len(set(_arg(args, kwargs, 0, "outputs"))) > 1:
        counts["combine.disagreements"] += 1


def _count_read(counts, args, kwargs, result):
    counts["corpus.tokens_read"] += sum(len(sentence) for sentence in result[0])


# (module, function or Class.method, counter hook).  The span name is the
# module's short name (its layer) plus the attribute.
TARGETS = (
    ("mbparse.cli", "run_command", None),
    ("mbparse.learner", "train", _count_train),
    ("mbparse.learner", "classify_labels", _count_classify),
    ("mbparse.learner", "gain_ratio_weights", None),
    ("mbparse.learner", "load_model", None),
    ("mbparse.learner", "save_model", None),
    ("mbparse.features", "extract", None),
    ("mbparse.features", "compress_mapped", None),
    ("mbparse.schemes", "encode", None),
    ("mbparse.schemes", "decode", None),
    ("mbparse.schemes", "convert", None),
    ("mbparse.schemes", "balance_brackets", _count_balance),
    ("mbparse.combine", "majority_vote", _count_vote),
    ("mbparse.pipeline", "TwoPassStream.tag_corpus", None),
    ("mbparse.pipeline", "BracketLevel.predict", None),
    ("mbparse.pipeline", "chunk_np", None),
    ("mbparse.pipeline", "chunk_typed", None),
    ("mbparse.pipeline", "parse_full", None),
    ("mbparse.pipeline", "train_chunker", None),
    ("mbparse.pipeline", "train_typed_chunker", None),
    ("mbparse.pipeline", "train_full_parser", None),
    ("mbparse.bundles", "load_chunker", None),
    ("mbparse.bundles", "load_full_parser", None),
    ("mbparse.bundles", "save_chunker", None),
    ("mbparse.bundles", "save_full_parser", None),
    ("mbparse.corpus", "read_corpus", _count_read),
    ("mbparse.corpus", "write_corpus", None),
    ("mbparse.evaluate", "score", None),
    ("mbparse.xor", "xor_experiment", None),
    ("mbparse.xor", "xor_run", None),
)


class Tracer:
    """Spans and counters of one process, which runs one CLI command."""

    def __init__(self, command: str):
        self.command = command
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mbparse" or n.startswith("mbparse."))]
        for module_name, attr, hook in TARGETS:
            module = sys.modules[module_name]
            name = f"{module_name.rpartition('.')[2]}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {"command": self.command, "names": names, "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: command, index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.command}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


LAYERS = ("cli", "learner", "features", "schemes", "combine", "pipeline",
          "bundles", "corpus", "evaluate", "xor")


def _merge(summaries):
    names: dict[str, list] = {}
    counts: defaultdict[str, int] = defaultdict(int)
    for summary in summaries:
        for name, (calls, incl, self_s) in summary["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for key, value in summary["counts"].items():
            counts[key] += value
    return names, counts


def layer_metrics(summaries) -> dict:
    """Per-layer metrics from the trace summaries of one workload's commands."""
    names, counts = _merge(summaries)

    def calls(*wanted):
        return sum(names[n][0] for n in wanted if n in names)

    def incl(*wanted):
        return sum(names[n][1] for n in wanted if n in names)

    def self_time(*wanted):
        return sum(names[n][2] for n in wanted if n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    classify_s = incl("learner.classify_labels")
    votes = calls("combine.majority_vote")
    m = {
        "learner.classify_s": classify_s,
        "learner.queries": counts["learner.queries"],
        "learner.query_pairs": counts["learner.query_pairs"],
        "learner.queries_per_s": ratio(counts["learner.queries"], classify_s),
        "learner.train_s": incl("learner.train"),
        "learner.train_calls": calls("learner.train"),
        "learner.train_instances": counts["learner.train_instances"],
        "learner.gain_ratio_s": incl("learner.gain_ratio_weights"),
        "learner.load_model_s": incl("learner.load_model"),
        "learner.save_model_s": incl("learner.save_model"),
        "features.extract_calls": calls("features.extract"),
        "features.extract_s": incl("features.extract"),
        "features.compress_calls": calls("features.compress_mapped"),
        "features.compress_s": incl("features.compress_mapped"),
        # encode and decode also run inside convert: self times add up to
        # the codec's wall time without counting the nested calls twice
        "schemes.codec_s": self_time("schemes.encode", "schemes.decode", "schemes.convert"),
        "schemes.balance_s": incl("schemes.balance_brackets"),
        "schemes.bracket_match_ratio": ratio(
            counts["schemes.spans_returned"], counts["schemes.opens_offered"]
        ),
        "combine.vote_calls": votes,
        "combine.vote_s": incl("combine.majority_vote"),
        "combine.disagreement_rate": ratio(counts["combine.disagreements"], votes),
        "pipeline.stream_tag_calls": calls("pipeline.TwoPassStream.tag_corpus"),
        "pipeline.cascade_levels": calls("pipeline.BracketLevel.predict"),
        "bundles.load_s": incl("bundles.load_chunker", "bundles.load_full_parser"),
        "bundles.save_s": incl("bundles.save_chunker", "bundles.save_full_parser"),
        "bundles.models_loaded": calls("learner.load_model"),
        "corpus.read_s": incl("corpus.read_corpus"),
        "corpus.write_s": incl("corpus.write_corpus"),
        "corpus.tokens_read": counts["corpus.tokens_read"],
        "evaluate.score_s": incl("evaluate.score"),
        "xor.rounds": calls("xor.xor_run"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            entry[2] for name, entry in names.items() if name.split(".", 1)[0] == layer
        )
    return m
