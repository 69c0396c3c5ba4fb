"""Smoke tests of the benchmark harness at tiny corpus sizes.

    python3 -m pytest perfbench/tests -q

Each test copies the benchmark, the sources and BENCHMARK.json into a fresh
directory, as a checkout holds them, and runs the benchmark there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import hostspeed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("learner.queries", "learner.query_pairs", "learner.train_instances",
                "features.extract_calls", "pipeline.stream_tag_calls",
                "bundles.models_loaded")


def _checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(checkout: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(checkout, workload):
    proc = _bench(checkout, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
    record = json.loads(proc.stdout.splitlines()[0])["record"]
    for key in ("seed", "corpus_tokens", "nproc", "python", "numpy", "host"):
        assert key in record
    assert record["host"]["speed"] > 0


def test_traced_counts_repeat_exactly(checkout):
    runs = []
    for _ in range(2):
        proc = _bench(checkout, "full-parse", trace=1)
        assert proc.returncode == 0, proc.stderr
        assert "tracing overhead on full-parse" in proc.stdout
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert runs[0]["metrics"][name]["value"] > 0
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"]
    assert runs[0]["metrics"]["pipeline.cascade_levels"]["value"] > 0


def test_without_sources_fails_without_a_result(tmp_path):
    bare = _checkout(tmp_path, with_sources=False)
    proc = _bench(bare, "np-chunk", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer("demo")

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("features.leaf", leaf)

    def outer(x):
        return traced_leaf(traced_leaf(x))

    traced_outer = tracer.wrap("pipeline.outer", outer)
    assert traced_outer(1) == 3
    summary = tracer.summary()
    calls, incl, self_s = summary["names"]["pipeline.outer"]
    leaf_calls, leaf_incl, _ = summary["names"]["features.leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert self_s == pytest.approx(incl - leaf_incl)
    metrics = layer_metrics([summary])
    assert metrics["pipeline.self_s"] == pytest.approx(self_s)
    assert metrics["features.self_s"] == pytest.approx(leaf_incl)


def test_host_speed_is_the_geometric_mean_of_the_loop_ratios():
    ref = hostspeed.REFERENCE_S
    at_reference = {name: [ref[name]] * 3 for name in hostspeed.LOOPS}
    assert hostspeed.speed([at_reference]) == pytest.approx(1.0)
    slower = {"interp": [2 * ref["interp"]], "array": [ref["array"] / 2]}
    assert hostspeed.speed([slower, slower]) == pytest.approx(1.0)
    both_slower = {name: [4 * ref[name]] * 3 for name in hostspeed.LOOPS}
    assert hostspeed.speed([both_slower, at_reference, both_slower]) == pytest.approx(0.25)
    measured = hostspeed.measure()
    assert all(len(measured[name]) == hostspeed.REPEATS for name in hostspeed.LOOPS)
