"""Benchmark of mbparse as a batch tool: train, load a bundle, tag, score.

    python3 perfbench/run.py --workload np-chunk --seed 1 --seconds 40 --trace 0

Writes seeded synthetic inputs under ``.perfbench_work/<workload>/`` and runs
each CLI command in a process of its own (``child.py``) with ``--workers 1``.
With ``--trace 0`` the train-and-tag cycle repeats while the next cycle is
expected to end within ``--seconds`` (at least three times) and the
end-to-end metrics are medians over the cycles, with times scaled by the
host's speed during the run (``hostspeed.py``).  With ``--trace 1`` the workload runs one cycle plainly and one
traced; the traced pass gives the per-layer metrics, its outputs must equal
the plain pass's byte for byte, and the difference in wall time is the
tracing overhead.  Metric names and units come from BENCHMARK.json.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Exit status is 0 when every command succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("np-chunk", "full-parse", "xor")
DEFAULT_SEED = 1
MIN_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
# Child processes get one thread each so that numpy cannot compete with the
# single measured command for the machine's cores.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Runner:
    """Runs CLI commands in child processes and counts failed operations."""

    def __init__(self, workload, deadline: float):
        self.wl = workload
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.log: list[dict] = []
        self.env = {**os.environ, **CHILD_ENV}

    def run(self, step, label: str, traced: bool = False, expect: str | None = None,
            check: bool = False):
        """Run one command; returns its result, or None when it failed.

        With ``check`` the step's output must be a well-formed tag output.
        With ``expect`` the output's SHA-256 must equal it.
        """
        import hostspeed
        from workloads import sha256

        self.attempted += 1
        work = self.wl.work
        result_path = work / f"{label}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
        if step.stdout is not None:
            cmd += ["--stdout", str(step.stdout)]
        if traced:
            cmd += ["--spans", str(work / f"{label}.spans.tsv")]
        cmd += ["--", *step.argv]
        left = self.deadline - time.perf_counter()
        if left <= 1.0:
            return self._fail(label, "no time left in the run")
        with open(work / f"{label}.err", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=left,
                                      stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err)
            except subprocess.TimeoutExpired:
                return self._fail(label, f"timed out after {left:.0f} s")
        host = hostspeed.measure()
        if proc.returncode != 0 or not result_path.is_file():
            return self._fail(label, f"child exited with {proc.returncode}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
        res["host"] = host
        self.log.append({"label": label, "wall_s": res["wall_s"], "load_s": res["load_s"],
                         "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
                         "host": host})
        if res["error"] is not None:
            return self._fail(label, f"run_command raised {res['error']}")
        if res["status"] != 0:
            return self._fail(label, f"exit status {res['status']}")
        if step.output is not None:
            problem = self.wl.check_output(step.output) if check else None
            if problem is not None:
                return self._fail(label, problem)
            res["digest"] = sha256(step.output)
            if expect is not None and res["digest"] != expect:
                return self._fail(label, f"output digest {res['digest'][:12]} != {expect[:12]}")
        return res

    def _fail(self, label: str, reason: str):
        self.failures.append(f"{label}: {reason}")
        return None


def _median(values):
    return statistics.median(values) if values else None


def _digest(results):
    """The first result's output digest, or None before any result."""
    return results[0]["digest"] if results else None


class Bench:
    def __init__(self, workload, seconds: float, reference: str | None, deadline: float):
        self.wl = workload
        self.seconds = seconds
        self.reference = reference
        self.runner = Runner(workload, deadline)
        self.problems: list[str] = []
        self.record: dict = {}

    def _pass(self, tag: str, traced: bool = False, repeat: bool = False, like=None):
        """Cycles of train and tag, repeated while ``repeat`` says the run
        measures, then one score.  Every cycle must reproduce the first
        cycle's outputs; with ``like`` (an earlier pass) the first cycle
        must reproduce that pass's outputs."""
        wl, run = self.wl, self.runner
        out = {"trains": [], "tags": [], "score": None}
        first = like or out
        start = time.perf_counter()
        while True:
            i = len(out["tags"])
            step = wl.train_step(tag, i)
            if step is not None:
                res = run.run(step, f"train{tag}.{i}", traced, _digest(first["trains"]))
                if res is None:
                    return out
                out["trains"].append(res)
            want = _digest(first["tags"]) or (None if like else self.reference)
            res = run.run(wl.tag_step(tag, i), f"tag{tag}.{i}", traced, want, check=True)
            if res is None:
                return out
            out["tags"].append(res)
            # stop before a cycle that would run past --seconds, so that a
            # run measures for --seconds and not up to one cycle longer
            now = time.perf_counter()
            cycle = (now - start) / len(out["tags"])
            if not repeat or len(out["tags"]) >= MIN_REPEATS and (
                now - start + cycle > self.seconds
                or run.deadline - now < 2 * cycle + 10
            ):
                break
        step = wl.score_step(tag)
        if step is not None:
            want = like["score"]["digest"] if like and like["score"] else None
            out["score"] = run.run(step, f"score{tag}", traced, want)
        return out

    def end_to_end(self) -> dict:
        import hostspeed

        res = self._pass("", repeat=True)
        trains, tags, items = res["trains"], res["tags"], self.wl.tag_items()
        self.record["cycles"] = len(tags)
        self.record["digest"] = _digest(tags)
        m = {}
        if tags and (self.wl.name == "xor" or res["score"] is not None):
            m["f1"] = self.wl.quality("")
            problem = self.wl.quality_problem(m["f1"])
            if problem is not None:
                self.problems.append(problem)
        if not tags:
            return m
        raw = {}
        if self.wl.name == "xor":
            # one process trains and tags: its wall time is both
            trains = tags
            raw["setup_s"] = _median([t["import_s"] for t in tags])
            raw["tag_tokens_per_s"] = _median([items / t["wall_s"] for t in tags])
        else:
            raw["setup_s"] = _median([sum(t["load_s"]) for t in tags])
            raw["tag_tokens_per_s"] = _median(
                [items / (t["wall_s"] - sum(t["load_s"])) for t in tags])
        raw["train_s"] = _median([t["wall_s"] for t in trains])
        # times read as seconds on the reference machine (hostspeed.py)
        speed = hostspeed.speed(r["host"] for r in (*res["trains"], *res["tags"]))
        m["setup_s"] = raw["setup_s"] * speed
        m["train_s"] = raw["train_s"] * speed
        m["tag_tokens_per_s"] = raw["tag_tokens_per_s"] / speed
        self.record["host"] = {"speed": speed, "raw": raw}
        m["train_peak_rss_mb"] = _median([t["peak_rss_mb"] for t in trains])
        m["tag_peak_rss_mb"] = _median([t["peak_rss_mb"] for t in tags])
        return m

    def per_layer(self) -> dict:
        from tracer import layer_metrics
        from workloads import bundle_bytes

        plain = self._pass("")
        self.record["digest"] = _digest(plain["tags"])
        traced = self._pass("t", traced=True, like=plain)

        def results(p):
            return [r for r in (*p["trains"], *p["tags"], p["score"]) if r]

        m = layer_metrics([r["trace"] for r in results(traced)])
        m["bundles.bytes"] = bundle_bytes(self.wl.work / "modelt.0") if traced["trains"] else 0
        plain_s = sum(r["wall_s"] for r in results(plain))
        traced_s = sum(r["wall_s"] for r in results(traced))
        m["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0
        self.record["overhead"] = {"plain_s": plain_s, "traced_s": traced_s,
                                   "overhead_s": traced_s - plain_s}
        return m


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="desk", help="input sizes: desk or tiny")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mbparse" / "cli.py").is_file():
        print(f"error: no mbparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    from workloads import SCALES, Workload

    if args.scale not in SCALES:
        ap.error(f"--scale must be one of {sorted(SCALES)}")
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, args.scale, work)
    wl.write_inputs()

    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    reference = references.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
    bench = Bench(wl, args.seconds, reference, start + DEADLINE_S)
    values = bench.per_layer() if args.trace else bench.end_to_end()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None:
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    runner = bench.runner
    problems = runner.failures + bench.problems
    if missing and not runner.failures:
        problems.append(f"metrics not computed: {', '.join(missing)}")
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "corpus_tokens": wl.corpora, "xor_rounds_per_command":
            wl.xor_rounds() if wl.name == "xor" else None,
        "reference_digest": reference, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "commands": runner.log,
        "problems": problems, **bench.record,
        "run_s": time.perf_counter() - start,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    if args.trace:
        o = bench.record.get("overhead", {})
        print(f"tracing overhead on {args.workload}: {o.get('overhead_s', 0.0):+.3f} s "
              f"({values.get('trace.overhead_pct', 0.0):+.2f}%)")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
