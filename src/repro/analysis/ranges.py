"""Value-range abstract interpretation over LinearIR.

Two cooperating layers:

* **Interval domain** (:class:`Interval`): closed intervals with ±∞
  endpoints, propagated through a worklist fixpoint over each function's
  CFG with widening (after a block's input changes too many times) and a
  narrowing pass (infinite bounds produced by widening are replaced by
  recomputed finite ones).  Branch targets are refined through the
  ``ldvar → cmp → condbr`` chain the lowering emits, so a loop body knows
  ``v < hi`` and the exit knows ``v >= hi``.  Array *contents* are
  summarized flow-insensitively program-wide: the deterministic ``[0, 1)``
  initialization joined with every value any ``store`` may write, iterated
  to its own fixpoint (functions communicate only through arrays, so this
  outer iteration is the whole interprocedural story; callee results and
  parameters are ⊤).

* **Symbolic facts** (:class:`EnclosingBound`): relational constraints
  harvested from enclosing ``For`` headers at the AST level — while a
  loop body runs, each enclosing induction variable ``j`` satisfies
  ``lo <= j < hi`` (and, when the loop was entered at all, ``hi > lo``).
  The dependence prover's row-disjointness disproof for flattened-2D
  ``v*N + j`` subscripts consumes these (``0 <= j < N`` implies rows
  ``v*N`` cannot collide across iterations).

Every transfer function mirrors the interpreter's concrete semantics
(:mod:`repro.profiler.interpreter`): Euclidean ``%`` follows the divisor's
sign, ``div``/``mod`` by zero raise (so their result intervals assume a
nonzero divisor), comparisons and logic yield {0, 1}, the clamped
intrinsics (``sqrt`` of a negative is 0, ``log`` of a non-positive is 0,
``exp`` saturates at 700) clamp the same way, and a scalar read before
any write yields 0.0.  :func:`check_soundness` enforces the mirror
empirically: it re-executes the program under the interpreter with a
probe attached and reports every observed value that escapes its
inferred interval.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ir import ast_nodes as ast
from repro.ir.linear import (
    BasicBlock,
    Imm,
    Instr,
    IRFunction,
    IRProgram,
    Opcode,
    Reg,
)

#: Version of the range analysis.  Cached artifacts that embed range-backed
#: verdicts (dataset shards revalidated by lint) record this and are
#: invalidated when the analyzer changes.
RANGE_ANALYSIS_VERSION = 1

_INF = math.inf

#: input-change budget per block before widening kicks in
_WIDEN_AFTER = 6

#: narrowing sweeps after the ascending fixpoint stabilizes
_NARROW_PASSES = 2

#: rounds of the program-wide array-summary iteration before widening
_ARRAY_ROUNDS = 4


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


class Interval:
    """A closed interval ``[lo, hi]``; ``lo > hi`` encodes ⊥ (no value).

    Immutable by convention: transfer functions share instances freely
    (immediates are decoded once, unchanged joins return ``self``), so an
    interval is never modified after construction.  Equality, hashing and
    ``repr`` follow the ``(lo, hi)`` field tuple.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __reduce__(self):
        return (Interval, (self.lo, self.hi))

    # -- lattice ---------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        lo, hi = self.lo, self.hi
        if lo > hi:
            return other
        olo, ohi = other.lo, other.hi
        if olo > ohi:
            return self
        if olo >= lo and ohi <= hi:
            return self  # other ⊆ self: min/max would keep self's bounds
        return Interval(min(lo, olo), max(hi, ohi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def leq(self, other: "Interval") -> bool:
        if self.lo > self.hi:
            return True
        if other.lo > other.hi:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def widen(
        self, new: "Interval", thresholds: Sequence[float] = ()
    ) -> "Interval":
        """Interval widening with thresholds: an unstable bound jumps to
        the nearest program constant beyond it (±∞ when none is left).

        Plain ±∞ widening loses outer-scope invariants inside nested
        loops: a variable like ``n`` that only *passes through* an inner
        loop gets widened there, and narrowing cannot descend because the
        inner loop's feedback is already a fixpoint.  Landing on the
        guard constant first keeps such variables finite.  ``thresholds``
        must be sorted ascending; termination holds because each bound
        can only step through the finite threshold list before ±∞.
        """
        lo, hi = self.lo, self.hi
        if lo > hi:
            return new
        if new.lo > new.hi:
            return self
        grow_lo, grow_hi = new.lo < lo, new.hi > hi
        if not (grow_lo or grow_hi):
            return self
        if grow_lo:
            lo = -_INF
            for t in reversed(thresholds):
                if t <= new.lo:
                    lo = t
                    break
        if grow_hi:
            hi = _INF
            for t in thresholds:
                if t >= new.hi:
                    hi = t
                    break
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """Standard interval narrowing: only infinite bounds are refined."""
        lo, hi = self.lo, self.hi
        if lo > hi or new.lo > new.hi:
            return self
        open_lo, open_hi = lo == -_INF, hi == _INF
        if not (open_lo or open_hi):
            return self
        return Interval(new.lo if open_lo else lo, new.hi if open_hi else hi)

    # -- helpers ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return (
            not self.lo > self.hi
            and math.isfinite(self.lo)
            and math.isfinite(self.hi)
        )

    def int_bounds(self) -> Optional[Tuple[int, int]]:
        """Bounds of ``int(x)`` (C-style truncation toward zero) over the
        interval, or None when unbounded/⊥.  Truncation is monotone, so
        the truncated endpoints bound every truncated member."""
        if not self.is_finite:
            return None
        return (math.trunc(self.lo), math.trunc(self.hi))

    @property
    def definitely_true(self) -> bool:
        """Every member is truthy (0.0 not contained)."""
        return not self.lo > self.hi and not self.lo <= 0.0 <= self.hi

    @property
    def definitely_false(self) -> bool:
        return self.lo == 0.0 and self.hi == 0.0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if self.lo > self.hi:
            return "⊥"
        return f"[{self.lo:g}, {self.hi:g}]"


TOP = Interval(-_INF, _INF)
BOTTOM = Interval(_INF, -_INF)
ZERO = Interval(0.0, 0.0)
BOOL = Interval(0.0, 1.0)
TRUE = Interval(1.0, 1.0)


def _mul1(a: float, b: float) -> float:
    # IEEE inf * 0 is nan; in interval arithmetic that product is 0
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def iv_add(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    return Interval(a.lo - b.hi, a.hi - b.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    products = (
        _mul1(a.lo, b.lo), _mul1(a.lo, b.hi),
        _mul1(a.hi, b.lo), _mul1(a.hi, b.hi),
    )
    return Interval(min(products), max(products))


def iv_neg(a: Interval) -> Interval:
    if a.lo > a.hi:
        return BOTTOM
    return Interval(-a.hi, -a.lo)


def iv_div(a: Interval, b: Interval) -> Interval:
    """``a / b`` given the interpreter raises on a zero divisor — the
    result interval assumes ``b != 0``."""
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    if b.contains(0.0):
        # divisor may come arbitrarily close to zero on either side
        if a.lo == 0.0 and a.hi == 0.0:
            return ZERO
        return TOP
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return Interval(min(quotients), max(quotients))


def iv_mod(a: Interval, b: Interval) -> Interval:
    """Euclidean ``%``: the result carries the divisor's sign (Python
    float semantics, which the interpreter uses verbatim)."""
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    if b.lo > 0.0:
        if 0.0 <= a.lo and a.hi < b.lo:
            return a  # x % d == x when 0 <= x < d for every divisor value
        return Interval(0.0, b.hi)
    if b.hi < 0.0:
        return Interval(b.lo, 0.0)
    return Interval(min(b.lo, 0.0), max(b.hi, 0.0))


def iv_min(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_max(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_not(a: Interval) -> Interval:
    if a.lo > a.hi:
        return BOTTOM
    if a.definitely_true:
        return ZERO
    if a.definitely_false:
        return TRUE
    return BOOL


def iv_and(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    if a.definitely_false or b.definitely_false:
        return ZERO
    if a.definitely_true and b.definitely_true:
        return TRUE
    return BOOL


def iv_or(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    if a.definitely_true or b.definitely_true:
        return TRUE
    if a.definitely_false and b.definitely_false:
        return ZERO
    return BOOL


def iv_cmp(pred: str, a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return BOTTOM
    if pred == "lt":
        if a.hi < b.lo:
            return TRUE
        if a.lo >= b.hi:
            return ZERO
    elif pred == "le":
        if a.hi <= b.lo:
            return TRUE
        if a.lo > b.hi:
            return ZERO
    elif pred == "gt":
        if a.lo > b.hi:
            return TRUE
        if a.hi <= b.lo:
            return ZERO
    elif pred == "ge":
        if a.lo >= b.hi:
            return TRUE
        if a.hi < b.lo:
            return ZERO
    elif pred == "eq":
        if a.hi < b.lo or b.hi < a.lo:
            return ZERO
        if a.lo == a.hi == b.lo == b.hi:
            return TRUE
    elif pred == "ne":
        if a.hi < b.lo or b.hi < a.lo:
            return TRUE
        if a.lo == a.hi == b.lo == b.hi:
            return ZERO
    return BOOL


def _iv_sqrt(a: Interval) -> Interval:
    # sqrt(x) if x >= 0 else 0
    hi = math.sqrt(a.hi) if a.hi > 0.0 else 0.0
    lo = math.sqrt(a.lo) if a.lo > 0.0 else 0.0
    return Interval(lo, hi)


def _iv_exp(a: Interval) -> Interval:
    return Interval(math.exp(min(a.lo, 700.0)), math.exp(min(a.hi, 700.0)))


def _iv_log(a: Interval) -> Interval:
    # log(x) if x > 0 else 0
    if a.hi <= 0.0:
        return ZERO
    hi = math.log(a.hi)
    if a.lo > 0.0:
        lo = math.log(a.lo)
    else:
        lo = -_INF  # arbitrarily small positive members
    if a.lo <= 0.0:  # the clamped-to-0 members
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return Interval(lo, hi)


def _iv_floor(a: Interval) -> Interval:
    lo = math.floor(a.lo) if math.isfinite(a.lo) else a.lo
    hi = math.floor(a.hi) if math.isfinite(a.hi) else a.hi
    return Interval(lo, hi)


_UNIT = Interval(-1.0, 1.0)

_INTRINSIC_TRANSFER = {
    "sqrt": lambda args: _iv_sqrt(args[0]),
    "exp": lambda args: _iv_exp(args[0]),
    "log": lambda args: _iv_log(args[0]),
    "sin": lambda args: _UNIT,
    "cos": lambda args: _UNIT,
    "fabs": lambda args: Interval(
        0.0 if args[0].contains(0.0) else min(abs(args[0].lo), abs(args[0].hi)),
        max(abs(args[0].lo), abs(args[0].hi)),
    ),
    "floor": lambda args: _iv_floor(args[0]),
    "pow": lambda args: Interval(0.0, _INF),  # pow(|a|, b), clamped at 0
}


# ---------------------------------------------------------------------------
# Per-instruction facts and per-function results
# ---------------------------------------------------------------------------


@dataclass
class InstrFacts:
    """Range facts attached to one instruction (by ``(fn, iid)``).

    ``value`` is the scalar read/written (``ldvar``/``stvar``), the value
    loaded/stored (``load``/``store``), or the call result; ``index`` is
    the float subscript operand *before* truncation; ``divisor`` is the
    second operand of ``div``/``mod``.  ``dead_edge`` marks a ``condbr``
    with a provably one-sided condition (label of the never-taken target).
    """

    value: Optional[Interval] = None
    index: Optional[Interval] = None
    divisor: Optional[Interval] = None
    dead_edge: Optional[str] = None


@dataclass
class FunctionRanges:
    """Fixpoint results for one function."""

    name: str
    block_in: Dict[str, Dict[str, Interval]] = field(default_factory=dict)
    facts: Dict[int, InstrFacts] = field(default_factory=dict)

    def reachable(self, label: str) -> bool:
        return label in self.block_in

    def var_at(self, label: str, var: str) -> Optional[Interval]:
        env = self.block_in.get(label)
        if env is None:
            return None
        return env.get(var, ZERO)


@dataclass(frozen=True)
class EnclosingBound:
    """Relational fact: while the body of loop ``loop_id`` executes,
    ``lo_expr <= var < hi_expr`` (and the enclosing loop was entered, so
    ``hi > lo`` held at least once)."""

    var: str
    lo: ast.Expr
    hi: ast.Expr

    @property
    def lo_const(self) -> Optional[float]:
        return self.lo.value if isinstance(self.lo, ast.Const) else None

    @property
    def hi_symbol(self) -> Optional[str]:
        return self.hi.name if isinstance(self.hi, ast.Var) else None


@dataclass
class ProgramRanges:
    """Program-level result: per-function ranges + array value summaries."""

    program: IRProgram
    functions: Dict[str, FunctionRanges]
    arrays: Dict[str, Interval]
    #: block transfers the fixpoint ran (worklist, narrowing and
    #: reporting passes) — a deterministic measure of engine work
    transfers: int = 0

    def fact(self, fn: str, iid: int) -> Optional[InstrFacts]:
        franges = self.functions.get(fn)
        return None if franges is None else franges.facts.get(iid)

    def loop_var_interval(self, loop_id: str) -> Optional[Interval]:
        """Interval of a loop's induction variable at body entry."""
        for fn_name, fn in self.program.functions.items():
            info = fn.loops.get(loop_id)
            if info is None:
                continue
            franges = self.functions.get(fn_name)
            if franges is None or not info.var:
                return None
            return franges.var_at(info.body_entry, info.var)
        return None

    def zero_trip_loops(self) -> List[str]:
        """Loops whose header is reachable but whose body never is."""
        out = []
        for fn_name, fn in self.program.functions.items():
            franges = self.functions.get(fn_name)
            if franges is None:
                continue
            for loop_id, info in fn.loops.items():
                if franges.reachable(info.header) and not franges.reachable(
                    info.body_entry
                ):
                    out.append(loop_id)
        return sorted(out)

    def store_index_cells(
        self, loop_id: str, line: int, array: str
    ) -> Optional[Tuple[int, int]]:
        """Truncated-integer cell bounds of the ``store`` lowered from the
        AST ``Store`` at ``line`` inside ``loop_id``, joined over every
        matching store instruction; None when any is unbounded."""
        cells: Optional[Tuple[int, int]] = None
        seen = False
        for fn_name, fn in self.program.functions.items():
            franges = self.functions.get(fn_name)
            if franges is None:
                continue
            for block in fn.blocks:
                for instr in block.instrs:
                    if (
                        instr.opcode is not Opcode.STORE
                        or instr.loop_id != loop_id
                        or instr.line != line
                        or instr.operands[0] != array
                    ):
                        continue
                    seen = True
                    fact = franges.facts.get(instr.iid)
                    if fact is None or fact.index is None:
                        return None
                    bounds = fact.index.int_bounds()
                    if bounds is None:
                        return None
                    if cells is None:
                        cells = bounds
                    else:
                        cells = (
                            min(cells[0], bounds[0]), max(cells[1], bounds[1])
                        )
        return cells if seen else None


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------

_BIN_TRANSFER = {
    Opcode.ADD: iv_add,
    Opcode.SUB: iv_sub,
    Opcode.MUL: iv_mul,
    Opcode.DIV: iv_div,
    Opcode.MOD: iv_mod,
    Opcode.MIN: iv_min,
    Opcode.MAX: iv_max,
    Opcode.AND: iv_and,
    Opcode.OR: iv_or,
}

_NEGATED_PRED = {
    "lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq",
}


class _CmpOrigin:
    """Provenance of a ``cmp`` result inside one block transfer: the
    predicate plus, for each operand, the variable it was loaded from (if
    any, and not overwritten since) and its interval at compare time."""

    __slots__ = ("pred", "lhs_var", "lhs_iv", "rhs_var", "rhs_iv")

    def __init__(self, pred, lhs_var, lhs_iv, rhs_var, rhs_iv):
        self.pred = pred
        self.lhs_var = lhs_var
        self.lhs_iv = lhs_iv
        self.rhs_var = rhs_var
        self.rhs_iv = rhs_iv


def _refine(
    env: Dict[str, Interval], origin: _CmpOrigin, taken: bool
) -> Optional[Dict[str, Interval]]:
    """Refine ``env`` along a ``condbr`` edge; None when the edge is
    infeasible (a refined variable's interval became ⊥)."""
    pred = origin.pred if taken else _NEGATED_PRED.get(origin.pred)
    if pred is None:
        return env
    bounds: List[Tuple[Optional[str], Interval]] = []
    a, b = origin.lhs_iv, origin.rhs_iv
    if pred == "lt":      # lhs < rhs
        bounds = [(origin.lhs_var, Interval(-_INF, b.hi)),
                  (origin.rhs_var, Interval(a.lo, _INF))]
    elif pred == "le":
        bounds = [(origin.lhs_var, Interval(-_INF, b.hi)),
                  (origin.rhs_var, Interval(a.lo, _INF))]
    elif pred == "gt":    # lhs > rhs
        bounds = [(origin.lhs_var, Interval(b.lo, _INF)),
                  (origin.rhs_var, Interval(-_INF, a.hi))]
    elif pred == "ge":
        bounds = [(origin.lhs_var, Interval(b.lo, _INF)),
                  (origin.rhs_var, Interval(-_INF, a.hi))]
    elif pred == "eq":
        bounds = [(origin.lhs_var, b), (origin.rhs_var, a)]
    else:  # ne: no single-interval refinement
        return env
    for var, bound in bounds:
        if var is None:
            continue
        current = env.get(var, ZERO)
        refined = current.meet(bound)
        if refined.lo > refined.hi:
            return None
        if refined != current:
            env = dict(env)
            env[var] = refined
    return env


# Pre-decoded instruction kinds.  A block is decoded at most once per
# analyze_program call into a list of tuples ``(kind, ...)`` whose value
# operands are register names (str) or the interval of an immediate;
# opcodes without abstract effect (ret, loop bookkeeping, a callfn whose
# result is unused) are dropped.
_LDVAR, _CONST, _BIN, _STVAR, _CMP, _CONDBR, _BR, _LOAD, _STORE, \
    _UNARY, _CALL, _CALLFN = range(12)

_UNARY_TRANSFER = {Opcode.NEG: iv_neg, Opcode.NOT: iv_not}


def _src(op) -> "str | Interval":
    """A decoded value operand: a register name, or an immediate's
    interval."""
    if type(op) is Reg:
        return op.name
    return Interval(op.value, op.value)  # Imm


def _decode_block(block: BasicBlock) -> List[tuple]:
    code: List[tuple] = []
    for instr in block.instrs:
        op = instr.opcode
        ops = instr.operands
        if op is Opcode.LDVAR:
            code.append((_LDVAR, instr.result.name, ops[0], instr.iid))
        elif op is Opcode.CONST:
            iv = Interval(ops[0].value, ops[0].value)
            code.append((_CONST, instr.result.name, iv))
        elif op in _BIN_TRANSFER:
            divisor = op is Opcode.DIV or op is Opcode.MOD
            code.append((
                _BIN, instr.result.name, _BIN_TRANSFER[op], _src(ops[0]),
                _src(ops[1]), instr.iid if divisor else None,
            ))
        elif op is Opcode.STVAR:
            code.append((_STVAR, ops[0], _src(ops[1]), instr.iid))
        elif op is Opcode.CMP:
            lhs_reg = ops[0].name if type(ops[0]) is Reg else None
            rhs_reg = ops[1].name if type(ops[1]) is Reg else None
            code.append((
                _CMP, instr.result.name, instr.meta.get("pred", "ne"),
                _src(ops[0]), _src(ops[1]), lhs_reg or None, rhs_reg or None,
            ))
        elif op is Opcode.CONDBR:
            cond_reg = ops[0].name if type(ops[0]) is Reg else None
            code.append((
                _CONDBR, _src(ops[0]), cond_reg, ops[1], ops[2], instr.iid,
            ))
        elif op is Opcode.BR:
            code.append((_BR, ops[0]))
        elif op is Opcode.LOAD:
            code.append((
                _LOAD, instr.result.name, ops[0], _src(ops[1]), instr.iid,
            ))
        elif op is Opcode.STORE:
            code.append((
                _STORE, ops[0], _src(ops[1]), _src(ops[2]), instr.iid,
            ))
        elif op in _UNARY_TRANSFER:
            code.append((
                _UNARY, instr.result.name, _UNARY_TRANSFER[op],
                _src(ops[0]),
            ))
        elif op is Opcode.CALL:
            code.append((
                _CALL, instr.result.name, _INTRINSIC_TRANSFER.get(ops[0]),
                tuple(_src(a) for a in ops[1:]), instr.iid,
            ))
        elif op is Opcode.CALLFN:
            if instr.result is not None:
                code.append((_CALLFN, instr.result.name))
    return code


class _BlockCode(dict):
    """``label -> decoded block``, decoding each block on first use (an
    unreachable block is never decoded, as it was never interpreted)."""

    def __init__(self, fn: IRFunction) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, label: str) -> List[tuple]:
        code = self[label] = _decode_block(self.fn.block(label))
        return code


def _note(facts: Dict[int, InstrFacts], iid: int, name: str, iv) -> None:
    fact = facts.get(iid)
    if fact is None:
        fact = facts[iid] = InstrFacts()
    if name == "dead_edge":
        fact.dead_edge = iv
    else:
        old = getattr(fact, name)
        setattr(fact, name, iv if old is None else old.join(iv))


def _transfer_block(
    code: List[tuple],
    env_in: Dict[str, Interval],
    arrays_iv: Dict[str, Interval],
    stores: Optional[List[Tuple[str, Interval]]] = None,
    facts: Optional[Dict[int, InstrFacts]] = None,
) -> Dict[str, Optional[Dict[str, Interval]]]:
    """Abstractly execute a decoded block from ``env_in``.

    Returns ``{successor_label: env_or_None}`` (None = provably-dead
    edge).  When ``stores`` is given, appends every ``(array, stored
    value)`` in execution order (the array-summary iteration); when
    ``facts`` is given, records per-instruction :class:`InstrFacts` (the
    final reporting pass).
    """
    env = dict(env_in)
    regs: Dict[str, Interval] = {}
    var_origin: Dict[str, str] = {}        # reg -> var it was loaded from
    cmp_origin: Dict[str, _CmpOrigin] = {}
    out: Dict[str, Optional[Dict[str, Interval]]] = {}
    for ins in code:
        kind = ins[0]
        if kind == _LDVAR:
            _, res, var, iid = ins
            iv = env.get(var, ZERO)
            regs[res] = iv
            var_origin[res] = var
            if facts is not None:
                _note(facts, iid, "value", iv)
        elif kind == _CONST:
            regs[ins[1]] = ins[2]
        elif kind == _BIN:
            _, res, transfer, a, b, iid = ins
            if a.__class__ is str:
                a = regs.get(a, TOP)
            if b.__class__ is str:
                b = regs.get(b, TOP)
            regs[res] = transfer(a, b)
            if facts is not None and iid is not None:
                _note(facts, iid, "divisor", b)
        elif kind == _STVAR:
            _, var, iv, iid = ins
            if iv.__class__ is str:
                iv = regs.get(iv, TOP)
            env[var] = iv
            # a later refinement through a cmp that read the old value
            # must not constrain the new one
            stale = [r for r, v in var_origin.items() if v == var]
            for r in stale:
                del var_origin[r]
            for origin in cmp_origin.values():
                if origin.lhs_var == var:
                    origin.lhs_var = None
                if origin.rhs_var == var:
                    origin.rhs_var = None
            if facts is not None:
                _note(facts, iid, "value", iv)
        elif kind == _CMP:
            _, res, pred, a, b, lhs_reg, rhs_reg = ins
            if a.__class__ is str:
                a = regs.get(a, TOP)
            if b.__class__ is str:
                b = regs.get(b, TOP)
            regs[res] = iv_cmp(pred, a, b)
            cmp_origin[res] = _CmpOrigin(
                pred,
                var_origin.get(lhs_reg) if lhs_reg else None, a,
                var_origin.get(rhs_reg) if rhs_reg else None, b,
            )
        elif kind == _CONDBR:
            _, cond, cond_reg, true_label, false_label, iid = ins
            if cond.__class__ is str:
                cond = regs.get(cond, TOP)
            true_env: Optional[Dict[str, Interval]] = env
            false_env: Optional[Dict[str, Interval]] = dict(env)
            if cond.definitely_true:
                false_env = None
            elif cond.definitely_false:
                true_env = None
            origin = cmp_origin.get(cond_reg) if cond_reg is not None else None
            if origin is not None:
                if true_env is not None:
                    true_env = _refine(true_env, origin, True)
                if false_env is not None:
                    false_env = _refine(false_env, origin, False)
            if facts is not None:
                if true_env is None and false_env is not None:
                    _note(facts, iid, "dead_edge", true_label)
                elif false_env is None and true_env is not None:
                    _note(facts, iid, "dead_edge", false_label)
            out[true_label] = true_env
            out[false_label] = false_env
        elif kind == _BR:
            out[ins[1]] = env
        elif kind == _LOAD:
            _, res, array, idx, iid = ins
            loaded = arrays_iv.get(array, TOP)
            regs[res] = loaded
            if facts is not None:
                if idx.__class__ is str:
                    idx = regs.get(idx, TOP)
                _note(facts, iid, "index", idx)
                _note(facts, iid, "value", loaded)
        elif kind == _STORE:
            _, array, idx, stored, iid = ins
            if stored.__class__ is str:
                stored = regs.get(stored, TOP)
            if stores is not None:
                stores.append((array, stored))
            if facts is not None:
                if idx.__class__ is str:
                    idx = regs.get(idx, TOP)
                _note(facts, iid, "index", idx)
                _note(facts, iid, "value", stored)
        elif kind == _UNARY:
            _, res, transfer, a = ins
            if a.__class__ is str:
                a = regs.get(a, TOP)
            regs[res] = transfer(a)
        elif kind == _CALL:
            _, res, transfer, srcs, iid = ins
            args = [
                regs.get(a, TOP) if a.__class__ is str else a for a in srcs
            ]
            iv = transfer(args) if transfer is not None else TOP
            regs[res] = iv
            if facts is not None:
                _note(facts, iid, "value", iv)
        else:  # _CALLFN with a result
            regs[ins[1]] = TOP
    return out


# ---------------------------------------------------------------------------
# Fixpoint driver
# ---------------------------------------------------------------------------


def _join_env(
    a: Dict[str, Interval], b: Dict[str, Interval]
) -> Dict[str, Interval]:
    out = dict(a)
    for var, iv in b.items():
        cur = out.get(var)
        if cur is None:
            out[var] = ZERO.join(iv)
        elif cur is not iv:  # x.join(x) keeps x's bounds
            out[var] = cur.join(iv)
    for var in a:
        if var not in b:
            out[var] = out[var].join(ZERO)
    return out


def _env_leq(a: Dict[str, Interval], b: Dict[str, Interval]) -> bool:
    for var, iv in a.items():
        if not iv.leq(b.get(var, ZERO)):
            return False
    for var, iv in b.items():
        if var not in a and not ZERO.leq(iv):
            return False
    return True


def _widen_env(
    old: Dict[str, Interval],
    new: Dict[str, Interval],
    thresholds: Sequence[float] = (),
) -> Dict[str, Interval]:
    out = {
        var: iv.widen(new.get(var, ZERO), thresholds)
        for var, iv in old.items()
    }
    for var, iv in new.items():
        if var not in old:
            out[var] = ZERO.widen(iv, thresholds)
    return out


def _fn_thresholds(fn: IRFunction) -> Tuple[float, ...]:
    """Widening thresholds: every immediate constant in the function.
    Guard constants are the ones that matter (a bound lands on them and
    stabilizes); collecting all Imms is a cheap superset."""
    vals: Set[float] = {0.0}
    for block in fn.blocks:
        for instr in block.instrs:
            for op in instr.operands:
                if type(op) is Imm and math.isfinite(op.value):
                    vals.add(float(op.value))
    return tuple(sorted(vals))


def _narrow_env(
    old: Dict[str, Interval], new: Dict[str, Interval]
) -> Dict[str, Interval]:
    out = {var: iv.narrow(new.get(var, ZERO)) for var, iv in old.items()}
    for var, iv in new.items():
        if var not in old:
            out[var] = ZERO.narrow(iv)
    return out


class _DecodedFunction:
    """One function prepared for a single :func:`analyze_program` call:
    its blocks as transfer code, layout order, widening thresholds and
    the arrays it loads (the only part of the array summaries its
    fixpoint reads)."""

    __slots__ = ("code", "layout", "entry", "params", "thresholds", "loads")

    def __init__(self, fn: IRFunction) -> None:
        self.code = _BlockCode(fn)
        self.layout = [b.label for b in fn.blocks]
        self.entry = fn.entry.label
        self.params = fn.params
        self.thresholds = _fn_thresholds(fn)
        self.loads = tuple(sorted({
            instr.operands[0] for block in fn.blocks
            for instr in block.instrs if instr.opcode is Opcode.LOAD
        }))


def _analyze_function(
    fn: _DecodedFunction, arrays_iv: Dict[str, Interval]
) -> Tuple[Dict[str, Dict[str, Interval]], int]:
    """Run the intra-procedural fixpoint; returns reachable block-input
    envs and the number of block transfers run.  Parameters are ⊤ (any
    caller), unread scalars are 0.0."""
    entry_env: Dict[str, Interval] = {p: TOP for p in fn.params}
    entry = fn.entry
    code = fn.code
    thresholds = fn.thresholds
    block_in: Dict[str, Dict[str, Interval]] = {entry: entry_env}
    changes: Dict[str, int] = {}
    worklist = deque([entry])
    queued = {entry}
    transfers = 0

    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        outs = _transfer_block(code[label], block_in[label], arrays_iv)
        transfers += 1
        for target, env_out in outs.items():
            if env_out is None:
                continue
            old = block_in.get(target)
            if old is None:
                block_in[target] = dict(env_out)
            else:
                joined = _join_env(old, env_out)
                if _env_leq(joined, old):
                    continue
                count = changes.get(target, 0) + 1
                changes[target] = count
                if count > _WIDEN_AFTER:
                    joined = _widen_env(old, joined, thresholds)
                block_in[target] = joined
            if target not in queued:
                queued.add(target)
                worklist.append(target)

    # narrowing: recompute each reachable block's input from its
    # predecessors' refined edges, replacing only widened (infinite)
    # bounds — each sweep keeps the state a post-fixpoint, so any number
    # of sweeps is sound
    labels = [label for label in fn.layout if label in block_in]
    for _ in range(_NARROW_PASSES):
        edge_envs: Dict[str, List[Dict[str, Interval]]] = {}
        for label in labels:
            outs = _transfer_block(code[label], block_in[label], arrays_iv)
            for target, env_out in outs.items():
                if env_out is not None:
                    edge_envs.setdefault(target, []).append(env_out)
        transfers += len(labels)
        changed = False
        for label in labels:
            incoming = edge_envs.get(label)
            if label == entry:
                incoming = (incoming or []) + [entry_env]
            if not incoming:
                continue  # kept reachable conservatively
            recomputed = incoming[0]
            for env in incoming[1:]:
                recomputed = _join_env(recomputed, env)
            narrowed = _narrow_env(block_in[label], recomputed)
            if narrowed != block_in[label]:
                block_in[label] = narrowed
                changed = True
        if not changed:
            break
    return block_in, transfers


def _report(
    fn: _DecodedFunction,
    block_in: Dict[str, Dict[str, Interval]],
    arrays_iv: Dict[str, Interval],
    stores: Optional[List[Tuple[str, Interval]]] = None,
    facts: Optional[Dict[int, InstrFacts]] = None,
) -> int:
    """Reporting pass: one transfer per reachable block, in layout order,
    over the stabilized states; returns the number of transfers."""
    labels = [label for label in fn.layout if label in block_in]
    for label in labels:
        _transfer_block(
            fn.code[label], block_in[label], arrays_iv,
            stores=stores, facts=facts,
        )
    return len(labels)


def analyze_program(program: IRProgram) -> ProgramRanges:
    """Run the engine over every function of ``program``.

    Array value summaries are iterated to a program-level fixpoint: start
    from the deterministic ``[0, 1)`` initialization, analyze every
    function, join in everything any ``store`` may write, repeat (widening
    after a few rounds bounds accumulator-style growth).

    A function's fixpoint reads the summaries only through its ``load``s,
    so each round reuses the result of an earlier round whose loaded
    summaries were equal.  The last (stable) round ran on the final
    summaries, so its block states are the final ones and only the
    fact-recording pass runs after the loop.
    """
    decoded = {
        name: _DecodedFunction(fn) for name, fn in program.functions.items()
    }
    memo: Dict[tuple, tuple] = {}
    transfers = 0
    init = Interval(0.0, 1.0)
    arrays_iv: Dict[str, Interval] = {name: init for name in program.arrays}
    rounds = 0
    while True:
        store_joins: Dict[str, Interval] = {}
        block_ins: Dict[str, Dict[str, Dict[str, Interval]]] = {}
        for fn_name, fn in decoded.items():
            key = (fn_name, tuple(arrays_iv.get(a, TOP) for a in fn.loads))
            hit = memo.get(key)
            if hit is None:
                block_in, count = _analyze_function(fn, arrays_iv)
                stores: List[Tuple[str, Interval]] = []
                count += _report(fn, block_in, arrays_iv, stores=stores)
                transfers += count
                hit = memo[key] = (block_in, stores)
            block_ins[fn_name], stores = hit
            for array, stored in stores:
                store_joins[array] = store_joins.get(array, BOTTOM).join(
                    stored
                )
        new_iv = {}
        stable = True
        for name in program.arrays:
            joined = init.join(store_joins.get(name, BOTTOM))
            if rounds >= _ARRAY_ROUNDS:
                joined = arrays_iv[name].widen(joined)
            else:
                joined = arrays_iv[name].join(joined)
            if joined != arrays_iv[name]:
                stable = False
            new_iv[name] = joined
        arrays_iv = new_iv
        rounds += 1
        if stable:
            break

    functions: Dict[str, FunctionRanges] = {}
    for fn_name, fn in decoded.items():
        franges = FunctionRanges(name=fn_name, block_in=block_ins[fn_name])
        transfers += _report(
            fn, franges.block_in, arrays_iv, facts=franges.facts
        )
        functions[fn_name] = franges
    return ProgramRanges(
        program=program, functions=functions, arrays=dict(arrays_iv),
        transfers=transfers,
    )


# ---------------------------------------------------------------------------
# Symbolic facts: enclosing-loop bounds at the AST level
# ---------------------------------------------------------------------------


def harvest_enclosing_bounds(
    program: ast.Program,
) -> Dict[str, Tuple[EnclosingBound, ...]]:
    """For every labeled ``For`` loop, the bound facts of the loops
    around it (outermost first): ``lo <= var < hi`` holds whenever the
    inner loop's body executes.  Facts through ``While``/``If`` nesting
    are kept — the enclosing ``For`` headers still bracket the body."""
    out: Dict[str, Tuple[EnclosingBound, ...]] = {}

    def walk(body: Sequence[ast.Stmt], chain: Tuple[EnclosingBound, ...]):
        for stmt in body:
            if isinstance(stmt, ast.For):
                if stmt.loop_id is not None:
                    out[stmt.loop_id] = chain
                walk(
                    stmt.body,
                    chain + (EnclosingBound(stmt.var, stmt.lo, stmt.hi),),
                )
            elif isinstance(stmt, ast.While):
                walk(stmt.body, chain)
            elif isinstance(stmt, ast.If):
                walk(stmt.then_body, chain)
                walk(stmt.else_body, chain)

    for fn in program.functions.values():
        walk(fn.body, ())
    return out


# ---------------------------------------------------------------------------
# Soundness self-check: fuzzed interpreter runs vs. inferred intervals
# ---------------------------------------------------------------------------


def check_soundness(
    program: IRProgram,
    ranges: Optional[ProgramRanges] = None,
    args_list: Sequence[Tuple[float, ...]] = ((),),
    rng_seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 2_000_000,
) -> List[str]:
    """Execute ``program`` under the interpreter with a probe attached
    and return a violation message for every observed value that escapes
    its inferred interval (empty list = sound on these runs).

    Checked observations: scalar values at ``ldvar``/``stvar``, float
    subscripts (pre-truncation) and loaded/stored values at
    ``load``/``store``, intrinsic results, and ``div``/``mod`` divisors.
    Runs that raise (out-of-bounds, zero divisor, step budget) are fine —
    the intervals only claim to cover values the program *observes*.
    """
    from repro.errors import InterpreterError
    from repro.profiler.interpreter import Interpreter

    if ranges is None:
        ranges = analyze_program(program)
    violations: List[str] = []

    def probe(fn_name: str, iid: int, kind: str, value: float) -> None:
        fact = ranges.fact(fn_name, iid)
        if fact is None:
            violations.append(
                f"{fn_name}:iid{iid}: executed but never analyzed "
                f"(block unreachable per ranges)"
            )
            return
        iv = getattr(fact, kind)
        if iv is None or not iv.contains(value):
            violations.append(
                f"{fn_name}:iid{iid}: observed {kind}={value!r} outside "
                f"inferred {iv}"
            )

    for args in args_list:
        for seed in rng_seeds:
            interp = Interpreter(
                program, record=False, rng=seed, max_steps=max_steps,
                probe=probe,
            )
            try:
                interp.run(tuple(args))
            except InterpreterError:
                pass
            if len(violations) > 50:
                break
    return violations
