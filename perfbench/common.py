"""Result plumbing shared by the three workloads.

A workload returns a :class:`Result`: attempted/failed counts, the
metric table (name -> (value, unit)) and human-readable detail lines.
The detail lines carry what the one-line JSON cannot: the percentile a
tail metric reports and its sample count, per-phase sent/succeeded/failed
counts, and the host facts.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: percentiles a tail metric may report, highest first (the customary
#: ones: a finer ladder makes the reported percentile jump with the
#: sample count)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: with ``--fault``, every this-many-th operation (analyze, train) or
#: engine call (serve) raises
FAULT_EVERY = 3


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = (value, unit)

    def fail(self, reason: str) -> None:
        """Count one failed operation and keep its reason (first few)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def note(self, line: str) -> None:
        self.details.append(line)

    def ok_ratio(self) -> None:
        """Succeeded / attempted as a metric, and failed / attempted as a
        detail line.  (``failed_ratio`` reads 0 in a healthy run, so the
        steady end-to-end metric is its complement.)"""
        attempted = max(self.attempted, 1)
        self.put("ok_ratio", (self.attempted - self.failed) / attempted, "ratio")
        self.note(
            f"failed_ratio: {self.failed / attempted:.6f} "
            f"({self.failed} failed of {self.attempted} attempted)"
        )


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct), beyond
    raise ValueError(
        f"{n} samples cannot support a tail percentile (need "
        f">= {TAIL_MIN_BEYOND} beyond p{TAIL_LADDER[-1]:g})"
    )


def latency_summary(seconds: Sequence[float]) -> Tuple[float, float, float, int]:
    """(p50 ms, tail percentile, tail ms, samples beyond the tail)."""
    ms = [s * 1e3 for s in seconds]
    pct, value, beyond = tail(ms)
    return statistics.median(ms), pct, value, beyond


def split_blocks(values: Sequence[float], size: int) -> List[Sequence[float]]:
    """``values`` in consecutive, nearly equal blocks of at least ``size``
    (one block when there are fewer)."""
    count = max(1, len(values) // size)
    return [values[i * len(values) // count:(i + 1) * len(values) // count]
            for i in range(count)]


def put_block_latency(
    result: Result, blocks: Sequence[Sequence[float]], what: str
) -> None:
    """``latency_p50_ms`` and ``latency_tail_ms`` as medians over blocks of
    each block's p50 and tail (with one block, its p50 and tail), plus a
    detail line with the percentile and sample counts."""
    summaries = [latency_summary(block) for block in blocks]
    result.put("latency_p50_ms", statistics.median(s[0] for s in summaries),
               "ms")
    result.put("latency_tail_ms", statistics.median(s[2] for s in summaries),
               "ms")
    pcts = "/".join(sorted({f"p{s[1]:g}" for s in summaries}))
    sizes = sorted({len(block) for block in blocks})
    beyond = min(s[3] for s in summaries)
    if len(blocks) == 1:
        note = f"{pcts} of {sizes[0]} {what} ({beyond} beyond)"
    else:
        note = (f"median over {len(blocks)} blocks of each block's {pcts} "
                f"({sizes[0]}-{sizes[-1]} {what} per block, {beyond} or "
                "more beyond)")
    result.note(f"latency_tail_ms: {note}")


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def plant_predict_fault() -> None:
    """Make every :data:`FAULT_EVERY`-th ``Engine.predict_many`` call raise
    (the failure-accounting self-test; ``faulty_serve`` plants it in a
    server)."""
    import repro.runtime.engine as engine_mod

    original = engine_mod.Engine.predict_many
    calls = [0]

    def faulty(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] % FAULT_EVERY == 0:
            raise RuntimeError("planted fault")
        return original(self, *args, **kwargs)

    engine_mod.Engine.predict_many = faulty
