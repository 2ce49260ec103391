"""Static-analysis benchmark: range-sharpened prover + soundness gates.

Runs the static dependence prover (:mod:`repro.lint.static_dep`) twice
over the tiny benchmark roster (EP, IS, fib, nqueens) — once in classic
mode (``use_ranges=False``) and once with the value-range abstract
interpretation engine (:mod:`repro.analysis.ranges`) — and gates on
three hard checks:

* **strict sharpening** — the range-backed pass must settle strictly
  more loops as PROVABLY_PARALLEL than the classic pass, with at least
  one PROVABLY_SERIAL refutation the classic pass missed;
* **zero false positives** — every settled verdict is cross-checked
  against the dynamic oracle (:func:`repro.analysis.classify_all_loops`);
  a single contradiction fails the benchmark;
* **soundness** — :func:`repro.analysis.ranges.check_soundness` replays
  every roster program under the interpreter with a range probe
  attached; any observed value escaping its inferred interval fails.

Fixpoint cost is gated twice (the engine is run inside dataset
assembly, so a slow fixpoint is a regression, not a curiosity): the
roster total of block transfers (``ProgramRanges.transfers``, a
deterministic count) must not exceed the count this engine runs, and
each program's wall time must stay under a budget that only a
pathologically diverging fixpoint reaches.

Results are appended to ``benchmark_results/results_static_analysis.txt``.

``--quick`` runs one soundness seed per program (the CI budget); the
full run sweeps three seeds.
"""

import argparse
import time
from pathlib import Path

from repro.analysis import classify_all_loops
from repro.analysis.ranges import analyze_program, check_soundness
from repro.benchsuite import build_app
from repro.ir import lower_program
from repro.lint.static_dep import StaticVerdict, static_loop_verdicts
from repro.profiler import profile_program

TINY_APPS = ("EP", "IS", "fib", "nqueens")

# per-program fixpoint budget (seconds); the tiny roster runs in ~tens
# of milliseconds, so 2s means "pathologically diverging", not "slow CI"
FIXPOINT_BUDGET_S = 2.0

# roster total of fixpoint block transfers, as measured for the current
# engine (memoized array rounds); any extra work fails the gate
TRANSFER_BUDGET = 6998

QUICK_SEEDS = (0,)
FULL_SEEDS = (0, 1, 2)

_SHORT = {
    StaticVerdict.PROVABLY_PARALLEL: "P",
    StaticVerdict.PROVABLY_SERIAL: "S",
    StaticVerdict.UNKNOWN: "U",
}


def run(quick: bool, record) -> int:
    seeds = QUICK_SEEDS if quick else FULL_SEEDS
    mode = "quick" if quick else "full"
    record(f"== static-analysis benchmark ({mode}: seeds={list(seeds)}) ==")

    counts = {
        False: {"P": 0, "S": 0, "U": 0},
        True: {"P": 0, "S": 0, "U": 0},
    }
    flips = 0
    contradictions = []
    violations = []
    slow = []
    fixpoint_total = 0.0
    transfers = 0
    programs = 0

    for name in TINY_APPS:
        spec = build_app(name)
        for program in spec.programs:
            programs += 1
            ir = lower_program(program)

            t0 = time.perf_counter()
            ranges = analyze_program(ir)
            fixpoint_s = time.perf_counter() - t0
            fixpoint_total += fixpoint_s
            transfers += ranges.transfers
            if fixpoint_s > FIXPOINT_BUDGET_S:
                slow.append(f"{program.name}: fixpoint {fixpoint_s:.2f}s")

            report = profile_program(ir)
            oracle = classify_all_loops(ir, report)

            before = static_loop_verdicts(program, use_ranges=False)
            after = static_loop_verdicts(program, use_ranges=True)
            for loop_id in sorted(before):
                b = _SHORT[before[loop_id].verdict]
                a = _SHORT[after[loop_id].verdict]
                counts[False][b] += 1
                counts[True][a] += 1
                if a != b:
                    flips += 1
                    record(
                        f"  flip {program.name}/{loop_id}: {b} -> {a}"
                    )
                result = oracle.get(loop_id)
                if result is None:
                    continue
                if a == "P" and not result.parallel:
                    contradictions.append(
                        f"{program.name}/{loop_id}: proved parallel, "
                        f"oracle says serial"
                    )
                if a == "S" and result.parallel:
                    contradictions.append(
                        f"{program.name}/{loop_id}: proved serial, "
                        f"oracle says parallel"
                    )

            for msg in check_soundness(
                ir, ranges=ranges, rng_seeds=seeds
            ):
                violations.append(f"{program.name}: {msg}")

    total = sum(counts[True].values())
    record(
        f"classic prover:        P={counts[False]['P']} "
        f"S={counts[False]['S']} U={counts[False]['U']}  ({total} loops)"
    )
    record(
        f"range-sharpened:       P={counts[True]['P']} "
        f"S={counts[True]['S']} U={counts[True]['U']}"
    )
    record(f"verdict flips: {flips}")
    record(
        f"fixpoint wall time: {fixpoint_total:.3f}s over {programs} "
        f"programs ({fixpoint_total / max(programs, 1) * 1e3:.1f}ms avg, "
        f"budget {FIXPOINT_BUDGET_S:.1f}s each)"
    )
    record(
        f"fixpoint block transfers: {transfers} "
        f"(budget {TRANSFER_BUDGET})"
    )
    record(f"soundness violations: {len(violations)}")

    failures = []
    if counts[True]["P"] <= counts[False]["P"]:
        failures.append(
            "range engine did not strictly increase prover-confirmed "
            f"loops ({counts[False]['P']} -> {counts[True]['P']})"
        )
    if counts[True]["S"] <= counts[False]["S"]:
        failures.append(
            "range engine did not add any serial refutations "
            f"({counts[False]['S']} -> {counts[True]['S']})"
        )
    failures.extend(
        f"oracle contradiction: {c}" for c in contradictions
    )
    failures.extend(f"soundness: {v}" for v in violations[:5])
    failures.extend(f"fixpoint over budget: {s}" for s in slow)
    if transfers > TRANSFER_BUDGET:
        failures.append(
            f"fixpoint ran {transfers} block transfers, budget "
            f"{TRANSFER_BUDGET}"
        )

    for failure in failures:
        record(f"FAIL: {failure}")
    if not failures:
        settled = counts[True]["P"] + counts[True]["S"]
        record(
            f"PASS: {flips} verdicts sharpened, {settled}/{total} loops "
            "settled, 0 oracle contradictions, 0 soundness violations"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="one soundness seed per program (CI budget); gates still apply",
    )
    args = parser.parse_args(argv)

    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / "results_static_analysis.txt"
    with open(out_path, "a") as fh:
        def record(line: str) -> None:
            fh.write(line + "\n")
            print(line)

        return run(args.quick, record)


if __name__ == "__main__":
    raise SystemExit(main())
