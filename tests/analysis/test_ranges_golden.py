"""Byte-identity wall for the value-range engine.

For every bundled application × program × optimization pipeline, the
canonical rendering of :func:`repro.analysis.ranges.analyze_program`'s
result is hashed and compared against a checked-in sha256 in
``tests/analysis/goldens/ranges_<app>.sha256``.  The rendering covers
everything a consumer can read: every reachable block's input
environment, every instruction's :class:`InstrFacts` (value, index,
divisor, dead edge) and the array value summaries, with exact float
reprs.  Any change to an interval — a lost or gained widening step, a
refinement, a narrowing sweep — changes a digest.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_ranges_golden.py -q

review the goldens diff, and bump ``RANGE_ANALYSIS_VERSION`` (shard
caches embed range-backed verdicts).
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.analysis.ranges import analyze_program
from repro.benchsuite import app_names, build_app
from repro.ir import lower_program
from repro.ir.passes.pipeline import apply_pipeline, pipeline_names

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


def canonical(ranges) -> str:
    """Order-independent, exact rendering of a ``ProgramRanges``."""
    lines = []
    for fn_name in sorted(ranges.functions):
        franges = ranges.functions[fn_name]
        for label in sorted(franges.block_in):
            env = franges.block_in[label]
            cells = " ".join(f"{v}={env[v]!r}" for v in sorted(env))
            lines.append(f"in {fn_name} {label} {cells}")
        for iid in sorted(franges.facts):
            f = franges.facts[iid]
            lines.append(
                f"fact {fn_name} {iid} {f.value!r} {f.index!r} "
                f"{f.divisor!r} {f.dead_edge!r}"
            )
    for name in sorted(ranges.arrays):
        lines.append(f"array {name} {ranges.arrays[name]!r}")
    return "\n".join(lines) + "\n"


def _digests(app):
    out = {}
    for program in build_app(app).programs:
        base = lower_program(program)
        for pipeline in pipeline_names():
            key = f"{pipeline} {program.name}"
            assert key not in out, f"duplicate case {key}"
            ranges = analyze_program(apply_pipeline(base, pipeline))
            out[key] = hashlib.sha256(
                canonical(ranges).encode()
            ).hexdigest()
    return out


def _golden_path(app):
    return GOLDEN_DIR / f"ranges_{app}.sha256"


def _read(path):
    golden = {}
    for line in path.read_text().splitlines():
        key, _, digest = line.rpartition(" ")
        golden[key] = digest
    return golden


@pytest.mark.parametrize("app", app_names())
def test_ranges_match_golden(app):
    digests = _digests(app)
    path = _golden_path(app)
    if _UPDATE:
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            "".join(f"{key} {digests[key]}\n" for key in sorted(digests))
        )
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    golden = _read(path)
    missing = sorted(set(digests) - set(golden))
    stale = sorted(set(golden) - set(digests))
    assert not missing, f"{path.name} has no digest for {missing[:5]}"
    assert not stale, f"{path.name} lists unknown cases {stale[:5]}"
    drifted = sorted(k for k in digests if digests[k] != golden[k])
    assert not drifted, (
        f"range results drifted from {path.name} for {drifted[:5]}; if the "
        f"change is intentional, regenerate with REPRO_UPDATE_GOLDENS=1, "
        f"review the diff and bump RANGE_ANALYSIS_VERSION"
    )


def test_canonical_rendering_separates_results():
    """The digest input is exact: distinct programs render differently
    and a re-analysis renders identically."""
    program = build_app("fib").programs[0]
    ir = lower_program(program)
    first = canonical(analyze_program(ir))
    assert first == canonical(analyze_program(ir))
    assert "fact " in first and "in " in first
    other = lower_program(build_app("nqueens").programs[0])
    assert canonical(analyze_program(other)) != first
