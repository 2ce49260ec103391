"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

* every workload in short mode emits exactly the end-to-end (``--trace
  0``) or per-layer (``--trace 1``) metrics ``BENCHMARK.json`` lists,
  each with its unit, and passes its correctness checks; the per-layer
  metrics a workload does not measure are named as reported at 0;
* a planted fault (an operation or a step that raises, a server that
  answers 500) is counted, so the failure accounting can fail;
* the tracer refuses to attribute time it cannot see;
* outside a checkout the benchmark exits non-zero with no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import split_blocks, tail  # noqa: E402
from perfbench.trace import MIN_COVERAGE, TraceError, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

END_TO_END = {"setup_s", "peak_rss_mb", "ok_ratio", "items_per_s",
              "latency_p50_ms", "latency_tail_ms", "verdict_accuracy"}
#: per-layer metrics each workload measures (the rest read 0 there)
TRACE = {"trace.overhead_ratio", "trace.overhead_base_s", "trace.coverage_ratio"}
PER_LAYER = {
    "analyze": TRACE | {
        f"{layer}_ms" for layer in (
            "ir.lower", "ir.verify", "ir.passes", "profiler.profile",
            "cu.build", "peg.build", "peg.subgraph", "dataset.extract",
            "analysis.features", "analysis.loop_features", "analysis.oracle",
            "tools.votes", "embeddings.walks", "embeddings.inst2vec_embed",
            "runtime.predict", "advisor.plan", "lint.static_dep",
            "analysis.ranges", "analysis.patterns", "advisor.validate",
            "advisor.reference", "advisor.scheduler", "advisor.transform",
        )
    } | {
        "ir.instrs", "profiler.dyn_instrs", "profiler.ns_per_dyn_instr",
        "peg.nodes", "peg.edges", "runtime.graphs", "runtime.batches",
        "advisor.schedules", "advisor.advised", "advisor.validated",
    },
    "train": TRACE | {
        "dataset.assemble_ms", "embeddings.inst2vec_train_ms",
        "dataset.samples", "dataset.drops", "dataset.cache_hits",
        "train.forward_ms", "train.backward_ms", "train.optimizer_ms",
        "train.batch_nodes", "runtime.tape_traces", "runtime.tape_record_ms",
    },
    "serve": TRACE | {
        "serve.queue_wait_mean_ms", "serve.transport_ms", "serve.decode_ms",
        "serve.batch_size_mean", "serve.inference_ms",
        "runtime.cache_lookups", "serve.shed", "loadgen.late_p99_ms",
    },
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(report["attempted"], int) and report["attempted"] >= 1
    assert isinstance(report["failed"], int)
    return report


def test_spec_lists_every_emitted_metric_once():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == set().union(
        *PER_LAYER.values()
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["analyze", "train", "serve"])
def test_short_run_emits_its_metrics_with_units(workload, trace):
    proc = bench("--workload", workload, "--trace", trace, "--short")
    report = result_of(proc)
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert set(report["metrics"]) == {m["name"] for m in SPEC[kind]}
    for name, metric in report["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == UNITS[name], name
    out = proc.stdout
    if trace == "1":
        unmeasured = sorted(set(UNITS) - END_TO_END - PER_LAYER[workload])
        assert (f"per-layer metrics {workload} does not exercise, reported "
                f"as 0: {' '.join(unmeasured)}") in out
        for name in unmeasured:
            assert report["metrics"][name]["value"] == 0
    assert report["correct"] and report["failed"] == 0, proc.stdout
    assert "host probe_before_s:" in out and "host pins:" in out
    assert "failed_ratio: 0.000000" in out or trace == "1"
    if trace == "0":
        assert "latency_tail_ms:" in out and "beyond)" in out  # sample count
    if trace == "1" and workload == "train":
        assert report["metrics"]["dataset.cache_hits"]["value"] == 0
    if workload == "serve":
        assert "phase low" in out and "phase high" in out


@pytest.mark.parametrize("workload", ["analyze", "train", "serve"])
def test_planted_fault_raises_failed_ratio(workload):
    report = result_of(
        bench("--workload", workload, "--trace", "0", "--short", "--fault")
    )
    assert report["failed"] > 0
    assert not report["correct"]
    assert report["metrics"]["ok_ratio"]["value"] < 1.0


def test_result_line_refuses_a_missing_or_mislabelled_metric():
    from perfbench.common import Result
    from perfbench.run import manifest_metrics

    result = Result()
    result.put("setup_s", 1.0, "s")
    with pytest.raises(RuntimeError, match="missing"):
        manifest_metrics("analyze", result, trace=False)
    result = Result()
    result.put("trace.overhead_ratio", 0.1, "ms")
    with pytest.raises(RuntimeError, match="wrong unit"):
        manifest_metrics("analyze", result, trace=True)


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "analyze", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    self_s = tracer.self_seconds()
    assert 0.015 < self_s["outer"] < 0.03
    assert 0.025 < self_s["inner"]


def test_coverage_gate_fires_on_untraced_time():
    tracer = Tracer()
    started = time.perf_counter()
    with tracer.span("op"):
        time.sleep(0.01)
    time.sleep(0.02)  # work no span covers
    ended = time.perf_counter()
    assert tracer.coverage(started, ended) < MIN_COVERAGE
    with pytest.raises(TraceError):
        tracer.check_coverage(started, ended)


def test_coverage_gate_fires_on_container_self_time():
    tracer = Tracer()
    started = time.perf_counter()
    with tracer.span("bench.op"):
        with tracer.span("layer"):
            time.sleep(0.01)
        time.sleep(0.02)  # inside the op, but in no layer
    ended = time.perf_counter()
    assert tracer.coverage(started, ended) > MIN_COVERAGE
    with pytest.raises(TraceError):
        tracer.check_coverage(started, ended, ["bench.op"])


def test_missing_or_silent_entry_points_are_errors():
    module = types.SimpleNamespace(__name__="fake", used=lambda: 1,
                                   unused=lambda: 2)
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.wrap(module, "renamed_away", "layer.gone")
    tracer.wrap(module, "used", "layer.used")
    tracer.wrap(module, "unused", "layer.unused")
    assert module.used() == 1
    with pytest.raises(TraceError, match="fake.unused"):
        tracer.check_fired()
    tracer.restore()
    assert not hasattr(module.used, "__wrapped__")


def test_tail_needs_ten_samples_beyond():
    pct, _, beyond = tail(list(range(1000)))
    assert (pct, beyond) == (99.0, 10)
    pct, _, beyond = tail(list(range(999)))
    assert (pct, beyond) == (95.0, 49)
    with pytest.raises(ValueError):
        tail(list(range(15)))


def test_blocks_are_consecutive_and_at_least_the_size():
    values = list(range(1795))
    blocks = split_blocks(values, 200)
    assert [v for block in blocks for v in block] == values
    assert len(blocks) == 8 and min(map(len, blocks)) >= 200
    assert split_blocks(values[:150], 200) == [values[:150]]
