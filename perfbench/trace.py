"""Spans and counters recorded from the benchmark's own code.

The traced run wraps calls into each layer's public functions at the
module attribute the caller looks them up through (``repro.dataset.
extraction.profile_program``, not ``repro.profiler.profile_program``), so
the program itself carries no instrumentation.  Spans live in memory as
flat records ``[name, start, end, parent]`` and are reduced at the end:

* a layer's **self time** is the summed duration of its spans minus the
  time their child spans cover;
* **coverage** is the share of the traced wall interval that layer spans
  account for: the union of top-level spans, less the self time of the
  benchmark's own per-operation container spans (``analyze.op``,
  ``train.step``), which belongs to no layer.  The gate is 95%, so time
  that slips out of every layer wrapper stops the run.

Integrity rules: wrapping an attribute that no longer exists, or a
wrapped entry point that never fires in a workload, raises
:class:`TraceError` — a missing layer must stop the run, never read 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: layer spans must account for at least this share of the traced wall time
MIN_COVERAGE = 0.95


class TraceError(RuntimeError):
    """The traced run cannot attribute time honestly."""


class Tracer:
    """In-memory span list with a nesting stack (one thread only)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        # wrapped target ("module.attr") -> number of calls seen
        self.fires: Counter = Counter()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A finished top-level span (for interleaved asyncio work)."""
        self.spans.append([name, start, end, -1])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else None
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, owned))

    def wrap(
        self,
        owner,
        attr: str,
        span_name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a function that records a span.

        ``on_result(tracer, result)`` runs after the span closes, so work
        done to count the result is not billed to the layer.
        """
        original = _require(owner, attr)
        target = f"{_qualname(owner)}.{attr}"
        span, fires = self.span, self.fires
        fires[target] += 0

        def traced(*args, **kwargs):
            fires[target] += 1
            with span(span_name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = original
        self._patch(owner, attr, traced)

    def wrap_method(
        self, module, class_attr: str, method: str, span_name: str
    ) -> None:
        """Replace ``module.class_attr`` by a subclass whose ``method`` is
        traced — only callers looking the class up through ``module`` see
        it, so one class can be attributed differently per caller."""
        base = _require(module, class_attr)
        original = _require(base, method)
        target = f"{_qualname(module)}.{class_attr}.{method}"
        span, fires = self.span, self.fires
        fires[target] += 0

        def traced(inner_self, *args, **kwargs):
            fires[target] += 1
            with span(span_name):
                return original(inner_self, *args, **kwargs)

        subclass = type(base.__name__, (base,), {method: traced})
        self._patch(module, class_attr, subclass)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reduction -----------------------------------------------------------

    def check_fired(self) -> None:
        """Every wrapped entry point must have recorded at least one span."""
        silent = sorted(t for t, calls in self.fires.items() if not calls)
        if silent:
            raise TraceError(
                "wrapped entry points never fired in this workload: "
                + ", ".join(silent)
            )

    def self_seconds(self) -> Dict[str, float]:
        """Span name -> summed duration minus child-span time."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def coverage(
        self, start: float, end: float, containers: Sequence[str] = ()
    ) -> float:
        """Share of ``[start, end]`` that layer spans account for: the union
        of top-level spans minus the self time of ``containers`` spans."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for _, s, e, parent in self.spans
            if parent < 0 and e > start and s < end
        )
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e <= cursor:
                continue
            covered += e - max(s, cursor)
            cursor = e
        self_s = self.self_seconds()
        covered -= sum(self_s.get(name, 0.0) for name in containers)
        return covered / (end - start) if end > start else 0.0

    def check_coverage(
        self, start: float, end: float, containers: Sequence[str] = ()
    ) -> float:
        share = self.coverage(start, end, containers)
        if share < MIN_COVERAGE:
            raise TraceError(
                f"layer spans account for {share:.1%} of the traced wall "
                f"time ({end - start:.3f}s); the gate is {MIN_COVERAGE:.0%}"
            )
        return share


def _require(owner, attr: str):
    if not hasattr(owner, attr):
        raise TraceError(
            f"wrapped entry point {_qualname(owner)}.{attr} no longer "
            "exists; update the benchmark's layer map"
        )
    return getattr(owner, attr)


def _qualname(obj) -> str:
    return getattr(obj, "__qualname__", None) or getattr(
        obj, "__name__", type(obj).__name__
    )


def overhead_metrics(
    traced_s: float, untraced_s: float
) -> Dict[str, Tuple[float, str]]:
    """``trace.overhead_ratio`` plus its base, as metric entries."""
    return {
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.overhead_base_s": (untraced_s, "s"),
    }
