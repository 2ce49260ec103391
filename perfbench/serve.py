"""``serve``: an open loop against ``python -m repro serve``.

The server runs as a child process (one process, default ``--workers
1``); the load comes from this process over two keep-alive connections,
with no extra threads.  Two fixed-rate phases run, ``low`` for four
thirds of ``--seconds`` and then ``high`` for a third.  Requests are due at
evenly spaced instants and each is timed from when it was due, so a
stall also counts against the requests queued behind it.

Mix: about 70% ``/v1/classify``, 20% ``/v1/classify_batch`` (the loops
of one program) and 10% ``/v1/advise``.  Half the graphs come from the
hot set (the served application's own samples); the other half are cold:
seeded feature perturbations of those samples, each sent once, so each
has a new content hash.

End-to-end metrics: ``latency_p50_ms`` and ``latency_tail_ms`` are the
``low`` phase's, as medians over consecutive blocks of
``BLOCK_REQUESTS``.  The ``high`` phase's p50 and tail are detail lines:
at two thirds of capacity, queueing multiplies every swing in host speed,
and over five seeds on a shared two-core host its p95 spread by 0.35 to
0.46 of its median (IQR), more than any bound a regression gate could
use.  ``items_per_s`` counts graphs answered 200, correctly and
within ``LATENCY_LIMIT_MS``, per second over both phases;
``verdict_accuracy`` is the share of answered graphs whose label is the
authored label of the loop they were drawn from.

Correctness: every 200 response's label must equal a direct
``Engine.predict_many`` on the same graph from the same seed-trained
model, built in this process by the function the CLI serves with
(``repro.cli._build_app_engine``).  Non-200
responses, per-item batch errors and transport errors are failures.

The serving fleet (``--workers N``) is deliberately not measured: two
workers, the front end and this generator would put four busy processes
on a two-core host.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchsuite import build_app
from repro.cli import _build_app_engine
from repro.runtime.engine import GraphInput
from repro.serve import wire

from perfbench.common import (
    Result,
    latency_summary,
    peak_rss_mb,
    percentile,
    put_block_latency,
    split_blocks,
)
from perfbench.trace import Tracer, overhead_metrics

APP = "FT"
EPOCHS = 5
#: fixed request rates, about 1/4 and 2/3 of capacity.  On a 2-core x86-64
#: host the two connections sustained about 265 req/s of this mix when the
#: host was otherwise idle (7-8 ms p50 up to 240 req/s) and about 180 req/s
#: while other tenants slowed its CPU two- to fourfold; at 175 req/s such a
#: slowdown grew a backlog of seconds.  The rates are taken from the
#: loaded figure so the high phase stays below capacity when the host slows.
LOW_RPS = 45.0
HIGH_RPS = 120.0
#: goodput (``items_per_s``, ``goodput_ratio``) counts requests answered
#: 200, correctly, within this limit
LATENCY_LIMIT_MS = 250.0
#: the latency metrics are medians over blocks of at least this many
#: consecutive low-phase replies (p95 each, ten beyond), so a host stall
#: of a second or two moves one block, not the result
BLOCK_REQUESTS = 200
CONNECTIONS = 2
WARMUP_S = 2.0
#: seconds allowed for one request before it counts as a transport error
REQUEST_TIMEOUT_S = 10.0
#: seconds allowed for the server to come up
START_TIMEOUT_S = 120.0
MIX = (("classify", 0.7), ("classify_batch", 0.2), ("advise", 0.1))
HOT_SHARE = 0.5


@dataclass
class Request:
    path: str
    body: bytes
    expected: List[Tuple[str, int]]   # (graph id, label) in reply order
    authored: List[int]               # the source loops' authored labels
    advise_loop: str = ""             # loop id the advise plan must name


@dataclass
class Phase:
    name: str
    rate: float
    sent: int = 0
    ok: int = 0
    failed: int = 0
    shed: int = 0
    good: int = 0
    good_graphs: int = 0   # graphs in replies that count as good
    graphs: int = 0        # graphs in correct 200 replies
    right: int = 0         # ... whose label is the authored one
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)   # due -> reply
    # send -> reply, once per graph (a batch request's time once for each
    # of its loops), the population the server's per-graph
    # serve_request_seconds covers
    graph_service: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)        # dispatch - due
    cpu_s: float = 0.0


class Reference:
    """The served model, rebuilt here from the same seed, plus payloads."""

    def __init__(self, seed: int) -> None:
        self.engine, self.samples = _build_app_engine(
            build_app(APP), batch_size=32, epochs=EPOCHS, seed=seed
        )
        self.hot_labels = [int(v) for v in self.engine.predict_many(self.samples)]
        self.by_program: Dict[str, List[int]] = {}
        for pos, sample in enumerate(self.samples):
            self.by_program.setdefault(sample.program_name, []).append(pos)
        self.programs = sorted(self.by_program)

    def requests(self, rng: np.random.Generator, count: int) -> List[Request]:
        """``count`` seeded requests; cold graphs are labelled in one
        reference call at the end."""
        cold: List[GraphInput] = []
        drafts = []
        for _ in range(count):
            kind = _pick(rng, MIX)
            if kind == "classify_batch":
                program = self.programs[int(rng.integers(len(self.programs)))]
                picks = self.by_program[program]
            else:
                picks = [int(rng.integers(len(self.samples)))]
            graphs = []
            for pos in picks:
                sample = self.samples[pos]
                if rng.random() < HOT_SHARE:
                    graphs.append((sample, None))
                    continue
                noise = rng.normal(0.0, 0.01, size=sample.x_semantic.shape)
                graph = GraphInput(
                    x_semantic=sample.x_semantic + noise,
                    x_structural=sample.x_structural,
                    adjacency=sample.adjacency,
                    graph_id=sample.sample_id,
                )
                graphs.append((sample, len(cold)))
                cold.append(graph)
            drafts.append((kind, picks, graphs))
        cold_labels = (
            [int(v) for v in self.engine.predict_many(cold)] if cold else []
        )

        out = []
        for kind, picks, graphs in drafts:
            objs, expected, authored = [], [], []
            for pos, (sample, cold_pos) in zip(picks, graphs):
                if cold_pos is None:
                    obj = wire.sample_to_wire(sample)
                    label = self.hot_labels[pos]
                else:
                    g = cold[cold_pos]
                    obj = wire.encode_loop(
                        g.x_semantic, g.x_structural, g.adjacency, g.graph_id
                    )
                    label = cold_labels[cold_pos]
                objs.append(obj)
                expected.append((sample.sample_id, label))
                authored.append(sample.label)
            if kind == "classify_batch":
                body = {"loops": objs}
            else:
                body = objs[0]
            out.append(Request(
                path=f"/v1/{kind}",
                body=json.dumps(body).encode(),
                expected=expected,
                authored=authored,
                advise_loop=(
                    self.samples[picks[0]].loop_id if kind == "advise" else ""
                ),
            ))
        return out


def _pick(rng: np.random.Generator, weighted) -> str:
    roll = rng.random()
    for name, weight in weighted:
        roll -= weight
        if roll < 0:
            return name
    return weighted[-1][0]


# ---------------------------------------------------------------------------
# the server child process
# ---------------------------------------------------------------------------


class Server:
    """``python -m repro serve`` as a child; stdout goes to a log file so a
    full pipe can never stall it."""

    def __init__(self, seed: int, log_dir: str, module: str = "repro") -> None:
        self.log_path = os.path.join(log_dir, f"serve-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", module, "serve", "--app", APP,
             "--port", "0", "--epochs", str(EPOCHS), "--seed", str(seed)],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = b"listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self._tail()
                )
            with open(self.log_path, "rb") as fh:
                text = fh.read()
            if marker in text:
                after = text.split(marker, 1)[1]
                self.port = int(after.split(b"\n", 1)[0].strip())
                break
            time.sleep(0.005)
        else:
            raise RuntimeError("server did not start: " + self._tail())
        while time.monotonic() < deadline:
            try:
                status, _ = asyncio.run(_one_shot(self.port, "GET", "/healthz"))
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("server never became healthy: " + self._tail())

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()

    def _tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")


# ---------------------------------------------------------------------------
# HTTP/1.1 keep-alive client on asyncio streams
# ---------------------------------------------------------------------------


class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b""):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            self.writer.write(head + body)
            await self.writer.drain()
            status_line = await self.reader.readline()
            parts = status_line.split()
            if len(parts) < 2:
                raise ConnectionError("connection closed by server")
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            payload = await self.reader.readexactly(length) if length else b""
            return int(parts[1]), payload
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        self.reader = self.writer = None


async def _one_shot(port: int, method: str, path: str):
    conn = Connection(port)
    try:
        return await conn.request(method, path)
    finally:
        await conn.close()


def _check(request: Request, status: int, payload: bytes) -> Optional[str]:
    """None when the reply is right, else why it is wrong."""
    if status != 200:
        return f"{request.path}: HTTP {status}"
    body = json.loads(payload)
    if request.path == "/v1/classify_batch":
        got = [(r.get("id"), r.get("label")) for r in body["results"]]
    else:
        got = [(body.get("id"), body.get("label"))]
    if got != request.expected:
        return f"{request.path}: labels {got} != reference {request.expected}"
    if request.advise_loop:
        plan = body.get("plan")
        if plan is None or plan.get("loop_id") != request.advise_loop:
            return f"/v1/advise: no plan for {request.advise_loop}"
    return None


async def run_phase(
    conns: Sequence[Connection], requests: Sequence[Request], phase: Phase,
    result: Result, tracer: Optional[Tracer] = None,
) -> None:
    """Send ``requests`` at ``phase.rate`` over ``conns`` (open loop)."""
    queue: asyncio.Queue = asyncio.Queue()
    clock = time.perf_counter
    cpu_started = time.process_time()
    start = clock() + 0.02

    async def dispatcher():
        for i, request in enumerate(requests):
            due = start + i / phase.rate
            now = clock()
            if due > now:
                await asyncio.sleep(due - now)
                if tracer is not None:
                    tracer.add_span("loadgen.wait", now, clock())
            phase.late.append(clock() - due)
            queue.put_nowait((due, request))
        for _ in conns:
            queue.put_nowait(None)

    async def sender(conn: Connection):
        while True:
            item = await queue.get()
            if item is None:
                return
            due, request = item
            phase.sent += 1
            result.attempted += 1
            sent = clock()
            try:
                status, payload = await asyncio.wait_for(
                    conn.request("POST", request.path, request.body),
                    timeout=REQUEST_TIMEOUT_S,
                )
            except (OSError, ConnectionError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                phase.failed += 1
                result.fail(f"{request.path}: transport error {exc!r}")
                continue
            done = clock()
            if tracer is not None:
                tracer.add_span("serve.request", sent, done)
            if status in (429, 504):
                phase.shed += 1
            problem = _check(request, status, payload)
            if problem is not None:
                phase.failed += 1
                result.fail(problem)
                continue
            phase.ok += 1
            phase.latencies.append(done - due)
            graphs = len(request.expected)
            phase.graph_service.extend([done - sent] * graphs)
            phase.graphs += graphs
            phase.right += sum(
                label == authored for (_, label), authored
                in zip(request.expected, request.authored)
            )
            if (done - due) * 1e3 <= LATENCY_LIMIT_MS:
                phase.good += 1
                phase.good_graphs += graphs

    await asyncio.gather(dispatcher(), *(sender(c) for c in conns))
    phase.cpu_s = time.process_time() - cpu_started
    phase.wall = clock() - start


# ---------------------------------------------------------------------------
# /metrics deltas
# ---------------------------------------------------------------------------


def parse_metrics(text: str) -> Dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _delta(after, before, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


async def scrape(conn: Connection) -> Dict[str, float]:
    status, payload = await conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_metrics(payload.decode())


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run(
    seed: int, seconds: float, trace: bool, cache_root: str,
    setup_repeats: int = 3, fault: bool = False,
) -> Result:
    result = Result()
    server_module = "perfbench.faulty_serve" if fault else "repro"
    reference = Reference(seed)
    rng = np.random.default_rng([seed, 4])
    # the low phase carries the latency metrics: the longer it runs, the
    # more swings in host speed its blocks average over
    duration = {"low": seconds * 4 / 3, "high": seconds / 3}
    warmup = reference.requests(rng, int(HIGH_RPS * WARMUP_S))
    plan = [("low", LOW_RPS)] + ([("low", LOW_RPS)] if trace else [])
    plan.append(("high", HIGH_RPS))
    phases = [
        (Phase(name, rate),
         reference.requests(rng, max(1, int(rate * duration[name]))))
        for name, rate in plan
    ]
    decode_s = []
    if trace:
        for _, requests in phases[1:]:
            for request in requests:
                if request.path != "/v1/classify_batch":
                    started = time.perf_counter()
                    wire.decode_loop(wire.parse_json(request.body))
                    decode_s.append(time.perf_counter() - started)

    tracer = Tracer() if trace else None
    if trace:
        setup_repeats = 1  # setup_s is an end-to-end metric
    setup_times = []
    server = None
    try:
        for attempt in range(setup_repeats):
            started = time.perf_counter()
            server = Server(seed, cache_root, server_module)
            server.wait_ready()
            setup_times.append(time.perf_counter() - started)
            if attempt < setup_repeats - 1:
                server.stop()
        scrapes, walls = asyncio.run(
            _drive(server.port, warmup, phases, result, tracer)
        )
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    for phase, _ in phases:
        result.note(
            f"phase {phase.name} @ {phase.rate:g} req/s: sent {phase.sent}, "
            f"succeeded {phase.ok}, failed {phase.failed}, shed {phase.shed}"
        )
    if not trace:
        (low, _), (high, _) = phases
        result.put("setup_s", statistics.median(setup_times), "s")
        result.put("peak_rss_mb", server_rss, "MB")
        result.put("items_per_s",
                   (low.good_graphs + high.good_graphs) / (low.wall + high.wall),
                   "1/s")
        put_block_latency(result, split_blocks(low.latencies, BLOCK_REQUESTS),
                          "low-phase requests")
        result.put("verdict_accuracy",
                   (low.right + high.right) / (low.graphs + high.graphs),
                   "ratio")
        result.ok_ratio()
        p50, pct, value, beyond = latency_summary(high.latencies)
        result.note(
            f"phase high latency: p50 {p50:.3f} ms, p{pct:g} {value:.3f} ms "
            f"of {len(high.latencies)} requests ({beyond} beyond)"
        )
        sent = low.sent + high.sent
        result.note(
            f"goodput_ratio: {(low.good + high.good) / sent:.6f} (answered "
            f"200 and correct within {LATENCY_LIMIT_MS:g} ms, of {sent} "
            f"sent); setup runs {[round(s, 3) for s in setup_times]}"
        )
        return result

    # traced: phases are (low untraced, low traced, high traced); scrapes
    # bracket each phase
    (base, _), (low, _), (high, _) = phases
    _, (low_before, low_after), (high_before, high_after) = scrapes
    # every wait lands inside one 5-10 ms histogram bucket (the batch
    # window), where a bucketed p50 always reads 7.5; the mean resolves it
    result.put("serve.queue_wait_mean_ms",
               _delta(low_after, low_before, "serve_queue_wait_seconds_sum")
               / _delta(low_after, low_before, "serve_queue_wait_seconds_count")
               * 1e3, "ms")
    # per graph: client send -> reply minus the batcher's admission ->
    # label, i.e. the time spent outside the batcher (socket, HTTP parse,
    # JSON decode, lint gate, reply encoding)
    server_request = (
        _delta(low_after, low_before, "serve_request_seconds_sum")
        / _delta(low_after, low_before, "serve_request_seconds_count")
    )
    result.put("serve.transport_ms",
               (statistics.mean(low.graph_service) - server_request) * 1e3,
               "ms")
    result.put("serve.decode_ms", statistics.mean(decode_s) * 1e3, "ms")
    batches = _delta(high_after, high_before, "serve_batch_size_count")
    result.put("serve.batch_size_mean",
               _delta(high_after, high_before, "serve_batch_size_sum") / batches,
               "count")
    result.put("serve.inference_ms",
               _delta(high_after, high_before, "serve_inference_seconds_sum")
               / batches * 1e3, "ms")
    # wire graphs arrive as GraphInput, which never consults the engine's
    # feature cache, so a hit ratio is undefined here; the lookup count
    # shows whether a change puts a cache on this path
    result.put("runtime.cache_lookups",
               _delta(high_after, high_before, "engine_cache_hits")
               + _delta(high_after, high_before, "engine_cache_misses"),
               "count")
    result.put("serve.shed", low.shed + high.shed, "count")
    late_ms = [s * 1e3 for s in low.late + high.late]
    result.put("loadgen.late_p99_ms", percentile(late_ms, 99.0), "ms")
    traced_cpu = low.cpu_s / low.sent
    untraced_cpu = base.cpu_s / base.sent
    for name, (value, unit) in overhead_metrics(
        traced_cpu, untraced_cpu
    ).items():
        result.put(name, value, unit)
    coverage = min(tracer.check_coverage(start, end) for start, end in walls)
    result.put("trace.coverage_ratio", coverage, "ratio")
    result.note(
        "serve traced: overhead = generator CPU per request, traced low "
        f"phase vs the untraced one (base {untraced_cpu * 1e3:.3f} ms CPU "
        "per request); server-side figures are /metrics deltas"
    )
    return result


async def _drive(port, warmup, phases, result: Result, tracer):
    """Warm up, then run each phase between two /metrics scrapes; with a
    tracer, every phase after the first is traced.  Returns the scrapes
    and the traced phases' wall intervals."""
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    scrapes, walls = [], []
    try:
        await run_phase(conns, warmup, Phase("warmup", HIGH_RPS), Result())
        for index, (phase, requests) in enumerate(phases):
            traced = tracer if index > 0 else None
            before = await scrape(conns[0])
            started = time.perf_counter()
            await run_phase(conns, requests, phase, result, traced)
            ended = time.perf_counter()
            scrapes.append((before, await scrape(conns[0])))
            if traced is not None:
                walls.append((started, ended))
    finally:
        for conn in conns:
            await conn.close()
    return scrapes, walls
