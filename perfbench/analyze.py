"""``analyze``: MiniC program in, per-loop verdicts and validated advice out.

A closed loop with one caller.  Each operation takes one program, drawn
by seed across all 14 Table II applications (``build_app(name,
seed_offset=seed)``) under a seeded pass pipeline, and runs the cold
path end to end:

    lower -> verify -> passes -> extract_loop_samples (profile, PEG,
    node features, inst2vec + anonymous-walk views) -> Engine.predict_many
    -> build_advice_plans -> validate_plan for every advised plan

Set-up trains the inst2vec vocabulary and the MV-GNN on a roster drawn
with a fixed seed of its own, then runs the advisor's known-answer
self-check.

Correctness per operation: every loop gets a verdict; the dynamic oracle
on the source program matches the authored label except on the listed
annotation quirks; no advised plan is refuted.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

import repro.advisor.plan as advisor_plan
import repro.advisor.validate as advisor_validate
import repro.analysis.oracle as oracle
import repro.analysis.ranges as ranges
import repro.dataset.extraction as extraction
import repro.ir.lowering as lowering
import repro.ir.passes.pipeline as pipeline
import repro.ir.verify as verify
import repro.peg.builder as peg_builder
import repro.profiler.interpreter as interpreter
import repro.runtime.engine as engine_mod
import repro.tools.base as tools_base
from repro.advisor import (
    VALIDATION_REFUTED,
    VALIDATION_VALIDATED,
    SelfCheckResult,
    self_check,
)
from repro.benchsuite import app_names, build_app
from repro.benchsuite.base import AppSpec
from repro.dataset.types import LoopDataset
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.ir.ast_nodes import Program
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.train import MVGNNAdapter, TrainConfig, train_model

from perfbench.common import (
    Result,
    peak_rss_mb,
    plant_predict_fault,
    put_block_latency,
)
from perfbench.trace import Tracer, overhead_metrics

#: (app, loop template) pairs whose authored label disagrees with the
#: dynamic oracle by construction: the early-exit search never finds its
#: flag on the app's input, so the profiled run carries no dependence
#: while the authored annotation (correctly) calls the loop sequential
ORACLE_QUIRKS = {("nqueens", "flag_search")}

#: roster the set-up trains on: this many programs, drawn across all apps
ROSTER_PROGRAMS = 20
#: the roster's own seed, fixed so that every run classifies with the same
#: model and --seed varies only the measured programs
ROSTER_SEED = 7919

GAMMA = 20
INST2VEC_DIM = 48
TRAIN_EPOCHS = 12
ADVISOR_THREADS = (2, 4)
#: the timed loop runs at least this many programs, so the tail metric
#: stays at p95 (thirteen programs beyond it) even on a slowed host
MIN_OPS = 270


@dataclass
class Model:
    """What set-up produces: the vocabulary, walk space and engine, plus
    the advisor's known-answer self-check."""

    inst2vec: Inst2Vec
    walk_space: AnonymousWalkSpace
    engine: engine_mod.Engine
    check: SelfCheckResult


def _labels(spec, program) -> Dict[str, int]:
    return {
        loop_id: loop.label
        for loop_id, loop in spec.loops.items()
        if loop.program_name == program.name
    }


def _draw_programs(specs, rng: np.random.Generator, count: int):
    """``count`` (spec, program) picks: app uniform, then program uniform."""
    picks = []
    for _ in range(count):
        spec = specs[int(rng.integers(len(specs)))]
        picks.append((spec, spec.programs[int(rng.integers(len(spec.programs)))]))
    return picks


def set_up() -> Model:
    """Train vocabulary + MV-GNN on a roster drawn with its own seed."""
    roster_seed = ROSTER_SEED
    specs = [build_app(name, seed_offset=roster_seed) for name in app_names()]
    roster = _draw_programs(
        specs, np.random.default_rng(roster_seed), ROSTER_PROGRAMS
    )
    irs = []
    for _, program in roster:
        ir = lowering.lower_program(program)
        verify.verify_program(ir)
        irs.append(ir)
    inst2vec = Inst2Vec(dim=INST2VEC_DIM).train(irs, epochs=2, rng=roster_seed)
    walk_space = AnonymousWalkSpace(4)
    samples = []
    for (spec, program), ir in zip(roster, irs):
        samples.extend(extraction.extract_loop_samples(
            program, _labels(spec, program), inst2vec, walk_space,
            suite=spec.suite, app=spec.name, gamma=GAMMA, ir_program=ir,
            rng=roster_seed,
        ))
    semantic_dim = samples[0].x_semantic.shape[1]
    config = MVGNNConfig(
        semantic_features=semantic_dim,
        walk_types=walk_space.num_types,
        node_view=DGCNNConfig(in_features=semantic_dim, sortpool_k=8,
                              dropout=0.3),
        struct_view=DGCNNConfig(in_features=200, sortpool_k=8, dropout=0.3),
    )
    adapter = MVGNNAdapter(config, rng=roster_seed)
    train_model(
        adapter, LoopDataset(samples, name="roster"),
        TrainConfig(epochs=TRAIN_EPOCHS, lr=2e-3, batch_size=16,
                    sortpool_k=8, seed=roster_seed),
    )
    engine = engine_mod.Engine(
        adapter.model, inst2vec=inst2vec, walk_space=walk_space,
        batch_size=32,
    )
    return Model(inst2vec, walk_space, engine, self_check(ADVISOR_THREADS))


@dataclass
class Op:
    """One drawn operation: a program under a pass pipeline."""

    spec: AppSpec
    program: Program
    pipeline: str
    seed: int


@dataclass
class Tally:
    loops: int = 0
    correct: int = 0
    advised: int = 0
    validated: int = 0


def run_op(op: Op, model: Model, tally: Tally) -> None:
    """The cold path for one program; raises AssertionError on a wrong
    output (the caller counts it as a failed operation)."""
    spec, program = op.spec, op.program
    labels = _labels(spec, program)
    base = lowering.lower_program(program)
    verify.verify_program(base)
    variant = pipeline.apply_pipeline(base, op.pipeline)
    samples = extraction.extract_loop_samples(
        program, labels, model.inst2vec, model.walk_space,
        suite=spec.suite, app=spec.name, gamma=GAMMA,
        variant=op.pipeline, ir_program=variant, rng=op.seed,
    )
    verdicts = model.engine.predict_many(samples)
    by_loop = {s.loop_id: int(v) for s, v in zip(samples, verdicts)}
    if sorted(by_loop) != sorted(labels) or set(by_loop.values()) - {0, 1}:
        raise AssertionError(
            f"{program.name}: {len(by_loop)} verdicts for {len(labels)} loops"
        )

    # the advisor and the oracle check work on the source program
    report = interpreter.profile_program(base)
    judged = oracle.classify_all_loops(base, report)
    for loop_id, label in labels.items():
        loop = spec.loops[loop_id]
        quirk = loop.annotation_quirk or (spec.name, loop.template) in ORACLE_QUIRKS
        if not quirk and int(judged[loop_id].parallel) != label:
            raise AssertionError(
                f"{loop_id}: oracle says {judged[loop_id].parallel}, "
                f"authored label {label}"
            )
    plans = advisor_plan.build_advice_plans(program, base, report, by_loop)
    for plan in plans.values():
        if not plan.advised:
            continue
        tally.advised += 1
        checked = advisor_validate.validate_plan(
            program, plan, threads=ADVISOR_THREADS
        )
        if checked.validation.status == VALIDATION_REFUTED:
            raise AssertionError(
                f"{plan.loop_id}: advised plan refuted "
                f"({checked.validation.detail})"
            )
        if checked.validation.status == VALIDATION_VALIDATED:
            tally.validated += 1
    tally.loops += len(labels)
    tally.correct += sum(by_loop[k] == v for k, v in labels.items())


class OpStream:
    """Endless seeded stream of operations, dealt from decks so that a run
    of a few hundred programs sees nearly the same mix as a long one:
    every round visits each application once in a seeded order; each
    application deals its programs, and the stream deals pass pipelines,
    without replacement until the deck is used up.  ``stream`` separates
    warm-up draws from measured ones."""

    def __init__(self, seed: int, stream: int) -> None:
        self.specs = [build_app(name, seed_offset=seed) for name in app_names()]
        self.pipelines = pipeline.pipeline_names()
        self.rng = np.random.default_rng([seed, stream])
        self._decks: Dict[object, List[int]] = {}
        self.max_loops = max(
            len(_labels(spec, program))
            for spec in self.specs for program in spec.programs
        )

    def _deal(self, key, size: int) -> int:
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = [int(i) for i in self.rng.permutation(size)]
        return deck.pop()

    def next(self) -> Op:
        spec = self.specs[self._deal("round", len(self.specs))]
        program = spec.programs[self._deal(spec.name, len(spec.programs))]
        name = self.pipelines[self._deal("pipeline", len(self.pipelines))]
        return Op(spec, program, name, int(self.rng.integers(2**31)))


def _closed_loop(
    ops: Sequence[Op], model: Model, result: Result, tally: Tally,
    span=None,
) -> List[float]:
    """Run ``ops`` in order; per-op latencies of the ones that succeeded."""
    latencies = []
    for op in ops:
        result.attempted += 1
        started = time.perf_counter()
        try:
            if span is None:
                run_op(op, model, tally)
            else:
                with span("analyze.op"):
                    run_op(op, model, tally)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            result.fail(f"{op.program.name}/{op.pipeline}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - started)
    return latencies


def _timed_ops(
    stream: OpStream, seconds: float, model, result, tally, min_ops: int = 0
):
    """Closed loop for ``seconds`` and at least ``min_ops`` operations that
    succeed (giving up on that after ``4 * min_ops`` attempts or three
    times ``seconds``); returns (ops run, latencies, wall)."""
    ops: List[Op] = []
    latencies: List[float] = []
    started = time.perf_counter()
    while (elapsed := time.perf_counter() - started) < seconds or (
        len(latencies) < min_ops and len(ops) < 4 * min_ops
        and elapsed < 3 * seconds
    ):
        op = stream.next()
        ops.append(op)
        latencies.extend(_closed_loop([op], model, result, tally))
    return ops, latencies, time.perf_counter() - started


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the analyze path calls."""
    def count_instrs(t, ir):
        t.count("ir.instrs", ir.instruction_count())

    def count_steps(t, report):
        t.count("profiler.dyn_instrs", report.steps)

    def count_peg(t, peg):
        t.count("peg.nodes", len(peg.nodes))
        t.count("peg.edges", len(peg.edges))

    def count_predict(t, labels):
        t.count("runtime.graphs", len(labels))

    def count_schedule(t, _run):
        t.count("advisor.schedules")

    tracer.wrap(lowering, "lower_program", "ir.lower", count_instrs)
    tracer.wrap(verify, "verify_program", "ir.verify")
    tracer.wrap(pipeline, "apply_pipeline", "ir.passes")
    tracer.wrap(extraction, "extract_loop_samples", "dataset.extract")
    tracer.wrap(extraction, "profile_program", "profiler.profile", count_steps)
    tracer.wrap(interpreter, "profile_program", "profiler.profile", count_steps)
    tracer.wrap(extraction, "build_peg", "peg.build", count_peg)
    tracer.wrap(extraction, "all_loop_subpegs", "peg.subgraph")
    tracer.wrap(peg_builder, "build_cus", "cu.build")
    tracer.wrap(extraction, "attach_node_features", "analysis.features")
    tracer.wrap(extraction, "loop_features", "analysis.loop_features")
    tracer.wrap(tools_base.ParallelismTool, "predict", "tools.votes")
    tracer.wrap(extraction, "structural_node_features", "embeddings.walks")
    tracer.wrap(Inst2Vec, "embed_sequence", "embeddings.inst2vec_embed")
    tracer.wrap(engine_mod.Engine, "predict_many", "runtime.predict",
                count_predict)
    tracer.wrap(oracle, "classify_all_loops", "analysis.oracle")
    tracer.wrap(advisor_plan, "build_advice_plans", "advisor.plan")
    tracer.wrap(advisor_plan, "static_loop_verdicts", "lint.static_dep")
    tracer.wrap(ranges, "analyze_program", "analysis.ranges")
    tracer.wrap(advisor_plan, "classify_all_patterns", "analysis.patterns")
    tracer.wrap(advisor_validate, "validate_plan", "advisor.validate")
    tracer.wrap_method(advisor_validate, "Interpreter", "run",
                       "advisor.reference")
    tracer.wrap(advisor_validate, "run_interleaved", "advisor.scheduler",
                count_schedule)
    tracer.wrap(advisor_validate, "apply_plan", "advisor.transform")


#: per-layer metrics reported as self time per program, in ms
SELF_TIME_LAYERS = (
    "ir.lower", "ir.verify", "ir.passes", "profiler.profile", "cu.build",
    "peg.build", "peg.subgraph", "dataset.extract", "analysis.features",
    "analysis.loop_features", "analysis.oracle", "tools.votes",
    "embeddings.walks", "embeddings.inst2vec_embed", "runtime.predict",
    "advisor.plan", "lint.static_dep", "analysis.ranges",
    "analysis.patterns", "advisor.validate", "advisor.reference",
    "advisor.scheduler", "advisor.transform",
)

#: per-layer counts reported per program
COUNTS = (
    "ir.instrs", "profiler.dyn_instrs", "peg.nodes", "peg.edges",
    "runtime.graphs", "runtime.batches", "advisor.schedules",
    "advisor.advised", "advisor.validated",
)


def run(
    seed: int, seconds: float, trace: bool, setup_repeats: int = 3,
    min_ops: int = MIN_OPS, fault: bool = False,
) -> Result:
    result = Result()
    if trace:
        setup_repeats = 1  # setup_s is an end-to-end metric
    setup_times = []
    for _ in range(setup_repeats):
        started = time.perf_counter()
        model = set_up()
        setup_times.append(time.perf_counter() - started)
        result.attempted += 1
        if not model.check.passed:
            result.fail("advisor self-check: " + "; ".join(model.check.details))

    # tapes are recorded per batch size (one batch per program): warm every
    # size a drawn program can need, so no operation pays for tracing
    warm = OpStream(seed, stream=1)
    model.engine.warm_up(range(1, warm.max_loops + 1))
    _closed_loop([warm.next() for _ in range(3)], model, Result(), Tally())
    if fault:
        plant_predict_fault()

    stream = OpStream(seed, stream=2)
    tally = Tally()
    if not trace:
        ops, latencies, wall = _timed_ops(
            stream, seconds, model, result, tally, min_ops
        )
        result.put("setup_s", statistics.median(setup_times), "s")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
        result.put("items_per_s", tally.loops / wall, "1/s")
        put_block_latency(result, [latencies], "programs")
        result.put("verdict_accuracy", tally.correct / tally.loops, "ratio")
        result.ok_ratio()
        result.note(
            f"analyze: {len(ops)} programs, {tally.loops} loops (items), "
            f"{tally.advised} advised, {tally.validated} validated "
            f"(validated_ratio {tally.validated / tally.advised:.4f}) in "
            f"{wall:.2f}s; setup runs {[round(s, 3) for s in setup_times]}"
        )
        return result

    # traced run: untraced pass over half the time, then the same
    # operations again under the tracer; the wall ratio is the overhead
    ops, _, untraced_wall = _timed_ops(
        stream, seconds / 2, model, result, Tally()
    )
    tracer = Tracer()
    install_layers(tracer)
    batches_before = model.engine.stats.batches
    try:
        started = time.perf_counter()
        _closed_loop(ops, model, result, tally, span=tracer.span)
        ended = time.perf_counter()
    finally:
        tracer.restore()
    tracer.check_fired()
    coverage = tracer.check_coverage(started, ended, ["analyze.op"])
    tracer.count("runtime.batches", model.engine.stats.batches - batches_before)
    tracer.count("advisor.advised", tally.advised)
    tracer.count("advisor.validated", tally.validated)

    n = len(ops)
    self_s = tracer.self_seconds()
    for layer in SELF_TIME_LAYERS:
        result.put(f"{layer}_ms", self_s[layer] * 1e3 / n, "ms")
    for name in COUNTS:
        result.put(name, tracer.counters[name] / n, "count")
    result.put(
        "profiler.ns_per_dyn_instr",
        self_s["profiler.profile"] * 1e9 / tracer.counters["profiler.dyn_instrs"],
        "ns",
    )
    for name, (value, unit) in overhead_metrics(
        ended - started, untraced_wall
    ).items():
        result.put(name, value, unit)
    result.put("trace.coverage_ratio", coverage, "ratio")
    result.note(
        f"analyze traced: {n} programs replayed; per-layer values are per "
        f"program; overhead base = {untraced_wall:.3f}s untraced wall for "
        "the same programs"
    )
    return result

