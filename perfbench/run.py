"""End-to-end benchmark of the ``repro`` pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze|train|serve --seed N \\
        --seconds S --trace 0|1

Every invocation is a fresh process.  Before numpy or ``repro`` is
imported, it pins the BLAS thread pools to one thread (inherited by the
``serve`` child) and points ``REPRO_CACHE_DIR`` and ``TMPDIR`` at a fresh
directory inside the checkout, deleted afterwards.  A fixed pure-Python
loop is timed before and after the run as a host-speed probe; it is
recorded, never used to scale a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports every end-to-end metric ``BENCHMARK.json`` lists, ``--trace 1``
every per-layer one; a per-layer metric of a layer the workload does not
run reads 0, and a detail line names those.  The lines before it carry
the host facts, the tail percentiles with their sample counts, and
per-phase counts.  Exit status is non-zero, with no result line, when
the run cannot complete or a metric is missing or has the wrong unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
#: a run still going after this many seconds is stopped and fails
RUN_TIMEOUT_S = 170
PROBE_ITERATIONS = 1_000_000

#: workload -> (short-mode seconds, short-mode keyword overrides)
SHORT = {
    "analyze": (2.0, {"setup_repeats": 1, "min_ops": 20}),
    "train": (1.0, {"setup_repeats": 1, "model_steps": 40, "min_models": 2}),
    "serve": (3.0, {"setup_repeats": 1}),
}


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes (no repository code)."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def source_facts() -> dict:
    """Git sha when the checkout is a repository, and a digest of src/."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def library_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def run_workload(args, run_dir: str):
    seconds, kwargs = args.seconds, {}
    if args.short:
        seconds, kwargs = SHORT[args.workload]
    trace = bool(args.trace)
    if args.workload == "analyze":
        from perfbench import analyze

        return analyze.run(args.seed, seconds, trace, fault=args.fault,
                           **kwargs)
    if args.workload == "train":
        from perfbench import train

        return train.run(args.seed, seconds, trace, run_dir,
                         fault=args.fault, **kwargs)
    from perfbench import serve

    return serve.run(args.seed, seconds, trace, run_dir, fault=args.fault,
                     **kwargs)


def manifest_metrics(workload: str, result, trace: bool) -> dict:
    """The metric table of the result line: exactly the metrics
    ``BENCHMARK.json`` lists for this kind of run, in its units.  A
    per-layer metric the workload does not produce reads 0 (the workload
    does no work in that layer); anything else missing is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    stray = sorted(set(result.metrics) - set(listed))
    wrong = sorted(name for name, (_, unit) in result.metrics.items()
                   if name in listed and unit != listed[name])
    missing = sorted(set(listed) - set(result.metrics))
    if stray or wrong or (missing and not trace):
        raise RuntimeError(
            f"{workload} metrics do not match BENCHMARK.json: not listed "
            f"{stray}, wrong unit {wrong}, missing {missing}"
        )
    if missing:
        result.note(f"per-layer metrics {workload} does not exercise, "
                    f"reported as 0: {' '.join(missing)}")
    return {name: {"value": result.metrics.get(name, (0.0, unit))[0],
                   "unit": unit}
            for name, unit in listed.items()}


def _timed_out(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "train", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--short", action="store_true",
                        help="tiny run for the benchmark's own tests")
    parser.add_argument("--fault", action="store_true",
                        help="plant a fault (benchmark self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # numpy reads the pins when it loads OpenBLAS, and repro reads
    # REPRO_CACHE_DIR when a cache is built: both are imported below
    run_dir = RUNS_DIR / uuid.uuid4().hex
    run_dir.mkdir(parents=True)
    os.environ.update(PINS)
    os.environ.pop("REPRO_VERIFY_PASSES", None)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir)
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # replaces the script's own directory, whose trace.py would shadow
    # the standard library module
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_TIMEOUT_S)
    probe_before = host_probe()
    try:
        result = run_workload(args, str(run_dir))
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    probe_after = host_probe()
    try:
        metrics = manifest_metrics(args.workload, result, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in result.failures:
        print(f"failure: {line}")
    for line in result.details:
        print(line)
    host = library_facts()
    host.update(source_facts())
    host.update({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "pins": " ".join(f"{k}={v}" for k, v in sorted(PINS.items())),
        "probe_before_s": round(probe_before, 6),
        "probe_after_s": round(probe_after, 6),
    })
    for key, value in host.items():
        print(f"host {key}: {value}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
