"""Degree-bounded evaluation of algebraic circuits over the integers.

The degree bound is a unary-semantics quantity: callers state how large a
syntactic total degree they are willing to evaluate, and circuits beyond it
are refused.  Under the bound, output bit length is polynomial in the
degree, the input bit lengths and the circuit size; the bit-length guard
turns anything pathological into a clean error.

No balancing pass is performed before evaluation; direct gate-order
evaluation is exact over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional, Tuple

from .circuit import ADD, CONST, MUL, PARAM, VAR, Circuit, analyze_degrees, require_parameter_free
from .config import DEFAULT_BITLEN_GUARD
from .errors import BitLengthGuardError, DegreeBoundError, DimensionMismatchError


def eval_gates(
    c: Circuit,
    vars: Tuple[int, ...],
    params: int = 0,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """Gate-by-gate evaluation with the bit-length guard but no degree check.

    Callers are expected to have validated the degree bound once; the hot
    loops (cube scans, hitting-set verification) go through here.
    ``params`` is the bit-valued params packed into one int R whose bit
    k - 1 is pk, with ``0 <= R < 2**n_params``; a class member
    ``(template, R)`` is evaluated as ``eval_gates(template, point, R)``.
    The default R = 0 is the all-zero member, and for a param-free
    circuit the only R.  A param takes any other integer value for good
    through :func:`~szpit.circuit.plug_params`.  Inputs of other lengths
    than the circuit's dimensions, or an R out of range, raise
    :class:`DimensionMismatchError`, whichever path the call takes.

    The first call on a circuit object interprets it, and the second
    prepares a :class:`SlotProgram` and keeps it on the object; from then
    on a call whose input widths keep every mul gate provably under the
    guard runs that program with no per-gate checks.  When an owner has
    called :func:`keep` on c (a class template, a codec's circuit), that
    is one compiled function of ``(R, *vars)``, which computes stage A,
    the gates affine in the params, and then stage B on every call: a
    member evaluated at k points (only the draws after H's points miss,
    and cube scans, do that) computes stage A k times.  Otherwise, at
    R = 0 only, a loop runs stage B on the live-outs' constants.  Every
    other call interprets, so results and errors are those of the
    interpreter on both paths.
    """
    if len(vars) != c.n_vars:
        raise DimensionMismatchError(f"{len(vars)} variable values for dimension {c.n_vars}")
    if params < 0 or params >> c.n_params:
        raise DimensionMismatchError(f"packed params {params} outside [0, 2^{c.n_params})")
    prog = c._program
    if prog is None:  # one-shot circuits never pay for preparation
        object.__setattr__(c, "_program", False)
    else:
        if prog is False:
            prog = _prepare(c, bitlen_guard)
            object.__setattr__(c, "_program", prog)
        # Packed params are bits: width 1, or 0 when all are zero.
        params_width = 1 if params else 0
        w = (
            max(max(vars).bit_length(), min(vars).bit_length(), params_width)
            if vars else params_width
        )
        if prog.mul_degree * w + prog.mul_bits <= bitlen_guard:
            run = prog.run
            if run is not None:
                return run(params, *vars)
            if not params:  # every live-out is its constant
                values = [*vars, *prog.live]
                append = values.append
                for lhs, rhs, is_mul in zip(prog.b_lhs, prog.b_rhs, prog.b_mul):
                    append(values[lhs] * values[rhs] if is_mul else values[lhs] + values[rhs])
                return values[prog.out]
    return _interpret(c, vars, params, bitlen_guard)


def _interpret(c: Circuit, vars, R: int, bitlen_guard: int) -> int:
    """The reference evaluator: one pass over the gates, guard on each mul."""
    values = [0] * len(c.gates)
    for i, g in enumerate(c.gates):
        op = g.op
        if op == ADD:
            v = values[g.lhs] + values[g.rhs]
        elif op == MUL:
            v = values[g.lhs] * values[g.rhs]
            if v.bit_length() > bitlen_guard:
                raise BitLengthGuardError(
                    f"gate {i}: value exceeds {bitlen_guard}-bit guard"
                )
        elif op == VAR:
            v = vars[g.name - 1]
        elif op == PARAM:
            v = R >> (g.name - 1) & 1
        else:  # CONST
            v = g.value
        values[i] = v
    return values[-1]


# Affine forms may hold at most this many coefficients per gate in all;
# past it (a long param add-chain builds quadratically many) the gates run
# as stage-B steps.
_FORM_CAP = 8

# The coefficients of every constant form; never mutated.
_NO_COEFFS: dict = {}


@dataclass(slots=True)
class SlotProgram:
    """A circuit as straight-line code in two stages.

    Stage A is the gates with an affine form in the params: params, consts
    (so a parameter-free circuit's consts are constant forms), and each
    binary gate whose operands have forms, whose own form is affine (not a
    product of two param forms), fits in what is left of ``_FORM_CAP``
    coefficients per gate, and whose static bit bound is at most both the
    preparing call's guard and ``DEFAULT_BITLEN_GUARD``.  Stage B is every
    other binary gate: those that read a variable and those that break
    one of these rules.  Its live-outs are the stage-A gates that a
    stage-B step reads, and the output when it is in stage A.  A call
    runs stage B on ``[*vars, *live-out values]``, appending one result
    per step; step j reads slots ``b_lhs[j] <= b_rhs[j]`` of that list
    and multiplies when ``b_mul[j]``.  Both are value-numbered: live-outs
    with the same form share one live-out, and gates of one op on the
    same two slots share one step, so no step recomputes an earlier
    step's value.  Three flat tuples need about half the memory of one
    tuple per gate.

    Each live-out's form ``c + sum(a_j * p_(j+1))`` is split into *runs*
    ``(s, j0, 2^L - 1)``: coefficients ``s * 2^i`` on ``p_(j0+1+i)`` for
    i < L, taken greedily in param order.  ``live`` holds each live-out's
    constant c, its value at R = 0, and ``runs`` its tuple of runs (empty
    for a constant).  Stage A reads packed params R (see
    :func:`eval_gates`): a run is ``R >> j0 & mask``, and the live-out is
    ``c`` plus s times each of its runs.

    ``run`` is the whole program compiled by :func:`keep`, a function of
    ``(R, *vars)`` that returns the output, or None; pickle and deepcopy
    leave it out.  Without it, a loop runs stage B at R = 0 only.

    Static bit bound: with every input at most w bits wide, every mul
    gate's value has at most ``mul_degree * w + mul_bits`` bits.  An input
    has degree 1 and 0 bits, a const degree 0 and its own bit length; add
    takes the max of each plus one bit, as bl(a + b) <= max(bl a, bl b) + 1;
    mul takes the sums, as bl(ab) <= bl a + bl b.
    """

    live: Tuple[int, ...]
    runs: tuple
    b_lhs: Tuple[int, ...]
    b_rhs: Tuple[int, ...]
    b_mul: Tuple[bool, ...]
    out: int
    mul_degree: int
    mul_bits: int
    run: Optional[Callable[..., int]] = None

    def __reduce__(self):
        # A compiled program lives in this process only: it is left out,
        # and the next keep() on the circuit rebuilds it.
        return SlotProgram, (
            self.live, self.runs, self.b_lhs, self.b_rhs, self.b_mul,
            self.out, self.mul_degree, self.mul_bits,
        )


def _combine(f, g, is_mul: bool, budget: int):
    """The affine form of f + g or f * g, or None for a product of two
    param forms or operands holding more than ``budget`` coefficients.
    A form is ``(constant, {param index: coefficient})``; the result may
    share an operand's dict, so none is ever changed."""
    (a, fa), (b, fb) = f, g
    if len(fa) + len(fb) > budget:
        return None
    if not is_mul:
        if not fb or not fa:
            return a + b, fa or fb
        if len(fa) < len(fb):
            fa, fb = fb, fa
        coeffs = dict(fa)
        for k, v in fb.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return a + b, coeffs
    if fa and fb:
        return None
    scale, coeffs = (a, fb) if fb else (b, fa)
    return a * b, {k: scale * v for k, v in coeffs.items()}


def _runs(coeffs: dict) -> tuple:
    """The coefficients split greedily, in index order, into runs
    ``(s, j0, 2^L - 1)``: coefficient ``s * 2^i`` on param index ``j0 + i``
    for each i < L.  A run grows while the next index continues it with
    the next power of two times s."""
    runs = []
    for j in sorted(coeffs):
        if runs:
            s, j0, mask = runs[-1]
            span = mask.bit_length()
            if j == j0 + span and coeffs[j] == s << span:
                runs[-1] = (s, j0, mask << 1 | 1)
                continue
        runs.append((coeffs[j], j, 1))
    return tuple(runs)


def _prepare(c: Circuit, bitlen_guard: int) -> SlotProgram:
    """Build c's slot program and static bit bound in two passes over the
    gates.  Preparation folds no constant past the preparing call's guard
    (nor past the default guard), so it builds no value that this call's
    interpreter would refuse.

    The first pass computes each gate's degree, bit bound and affine form,
    which decides its stage, and marks the live-outs; the static bound is
    taken over every gate.  The second gives each var, live-out and
    stage-B result its index in stage B's list
    ``[*vars, *live-outs, *B results]``, numbering values as it goes: a
    live-out whose constant and runs an earlier one has takes that one's
    slot, and so does a gate whose op and (ordered) operand slots an
    earlier step has.  Numbering is exact over Z, where add and mul
    commute.
    """
    gates = c.gates
    deg = [0] * len(gates)
    bits = [0] * len(gates)
    forms: list = [None] * len(gates)  # None: a var or a stage-B step
    is_live = [False] * len(gates)
    budget = _FORM_CAP * len(gates)
    fold_bits = min(bitlen_guard, DEFAULT_BITLEN_GUARD)
    mul_degree = mul_bits = 0
    for i, g in enumerate(gates):
        op = g.op
        if op == CONST:
            bits[i] = g.value.bit_length()
            forms[i] = (g.value, _NO_COEFFS)
        elif op == PARAM:
            deg[i] = 1
            forms[i] = (0, {g.name - 1: 1})
        elif op == VAR:
            deg[i] = 1
        else:
            lhs, rhs = g.lhs, g.rhs
            is_mul = op == MUL
            if is_mul:
                d, b = deg[lhs] + deg[rhs], bits[lhs] + bits[rhs]
                if d > mul_degree:
                    mul_degree = d
                if b > mul_bits:
                    mul_bits = b
            else:
                d, b = max(deg[lhs], deg[rhs]), max(bits[lhs], bits[rhs]) + 1
            deg[i] = d
            bits[i] = b
            f, h = forms[lhs], forms[rhs]
            if f is not None and h is not None and b <= fold_bits:
                form = _combine(f, h, is_mul, budget)
                if form is not None:
                    budget -= len(form[1])
                    forms[i] = form
                    continue
            if f is not None:
                is_live[lhs] = True
            if h is not None:
                is_live[rhs] = True
    if forms[-1] is not None:
        is_live[-1] = True
    n_vars = c.n_vars
    full = [-1] * len(gates)  # gate index -> slot in stage B's list
    # Live-outs of one form, the same constant and runs, share a slot.
    live, runs, live_of = [], [], {}
    for i in compress(range(len(gates)), is_live):
        const, coeffs = forms[i]
        key = (const, _runs(coeffs) if coeffs else ())  # most are constants
        slot = live_of.get(key)
        if slot is None:
            slot = live_of[key] = len(live)
            live.append(const)
            runs.append(key[1])
        full[i] = n_vars + slot
    # Steps of one op on the same two slots share a slot; add and mul
    # commute over Z, so each step reads the lower slot first.
    b_lhs, b_rhs, b_mul, step_of = [], [], [], {}
    next_b = n_vars + len(live)
    for i, g in enumerate(gates):
        if forms[i] is not None:
            continue
        op = g.op
        if op == VAR:
            full[i] = g.name - 1
            continue
        lhs, rhs = full[g.lhs], full[g.rhs]
        if lhs > rhs:
            lhs, rhs = rhs, lhs
        key = (op, lhs, rhs)
        slot = step_of.get(key)
        if slot is None:
            slot = step_of[key] = next_b
            next_b += 1
            b_lhs.append(lhs)
            b_rhs.append(rhs)
            b_mul.append(op == MUL)
        full[i] = slot
    return SlotProgram(
        tuple(live), tuple(runs), tuple(b_lhs), tuple(b_rhs), tuple(b_mul),
        full[-1], mul_degree, mul_bits,
    )


# keep() compiles a program only up to this many lines: live-outs, runs
# past a live-out's first, and value-numbered steps.  Compiling peaks at
# 2.3-3.4 KB and takes 11-17 us per line (a line that reads R costs the
# most; tracemalloc and wall time, CPython 3.11 on a 2-core VM), so the
# cap holds one compile to about 34 MB and 0.17 s; a longer program runs
# the loop at R = 0 and interprets at any other R.
COMPILE_CAP = 10_000


def keep(c: Circuit, bitlen_guard: int = DEFAULT_BITLEN_GUARD) -> None:
    """Prepare c's slot program now and compile it, for an owner that
    evaluates c many times: a class template, a codec's circuit.

    The compiled function ``run(R, *vars)`` is straight-line code.  It
    computes each live-out that reads R as ``c + s * (R >> j0 & mask)``
    over its runs, with ``c = 0`` left out and ``s = +-1`` written as a
    sign, then runs stage B, one ``+`` or ``*`` per step.  Constants,
    coefficients, shifts and masks reach it as closure cells, bound
    once, never as literals.  A program of more than ``COMPILE_CAP``
    lines is not compiled.  Calling keep again does nothing, except
    after a pickle or deepcopy, which leave the function out, so a copy
    interprets at R != 0 until keep compiles it again.
    """
    prog = c._program
    if not prog:
        prog = _prepare(c, bitlen_guard)
        object.__setattr__(c, "_program", prog)
    if prog.run is None and sum(max(len(r), 1) for r in prog.runs) + len(prog.b_mul) <= COMPILE_CAP:
        prog.run = _compile(prog, c.n_vars)


def _compile(prog: SlotProgram, n_vars: int) -> Callable[..., int]:
    """The program as one function of ``(R, s0, .., s(n_vars - 1))``.  A
    live-out that reads no param is its constant's cell; a run with
    s = 0 adds nothing and is left out."""
    cells: dict = {}  # value -> name of the closure cell that holds it

    def cell(v: int) -> str:
        name = cells.get(v)
        if name is None:
            name = cells[v] = f"k{len(cells)}"
        return name

    names = [f"s{i}" for i in range(n_vars)]
    lines = []
    for const, runs in zip(prog.live, prog.runs):
        expr = ""
        for s, j0, mask in runs:
            if s:
                bits = f"(R >> {cell(j0)} & {cell(mask)})" if j0 else f"(R & {cell(mask)})"
                expr += f" {'-' if s < 0 else '+'} {bits if abs(s) == 1 else f'{cell(abs(s))} * {bits}'}"
        if not expr:  # no run reads R
            names.append(cell(const))
            continue
        if const:
            expr = cell(const) + expr
        else:  # " + t" is t and " - t" is -t
            expr = expr[3:] if expr[1] == "+" else "-" + expr[3:]
        names.append(f"s{len(names)}")
        lines.append(f"{names[-1]} = {expr}")
    for lhs, rhs, is_mul in zip(prog.b_lhs, prog.b_rhs, prog.b_mul):
        names.append(f"s{len(names)}")
        lines.append(f"{names[-1]} = {names[lhs]} {'*' if is_mul else '+'} {names[rhs]}")
    source = "\n".join([
        f"def make({', '.join(cells.values())}):",
        f" def run({', '.join(['R', *names[:n_vars]])}):",
        *(f"  {line}" for line in lines),
        f"  return {names[prog.out]}",
        " return run",
    ])
    namespace: dict = {}
    exec(compile(source, "<slot program>", "exec"), namespace)
    return namespace["make"](*cells)


def eval_arithmetic(
    c: Circuit,
    vars: Tuple[int, ...],
    degree_bound: int,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """Evaluate the param-free circuit c at vars, refusing circuits of
    syntactic total degree > bound."""
    require_parameter_free(c, "eval_arithmetic")
    total = analyze_degrees(c).total
    if total > degree_bound:
        raise DegreeBoundError(f"syntactic degree {total} > {degree_bound}")
    return eval_gates(c, vars, 0, bitlen_guard)
