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
from typing import Tuple

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
    guard runs that program with no per-gate checks; its stage A, the
    gates that are affine in the params, runs once per R.  Every other
    call interprets, so results and errors are those of the interpreter.
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
        key, params_width, live = prog.memo
        if params is not key and params != key:
            # Packed params are bits: width 1, or 0 when all are zero.
            params_width = 1 if params else 0
            live = None
        w = (
            max(max(vars).bit_length(), min(vars).bit_length(), params_width)
            if vars else params_width
        )
        if prog.mul_degree * w + prog.mul_bits <= bitlen_guard:
            if live is None:
                live = prog.run_stage_a(params)
                # One assignment: no reader sees a key with another R's values.
                prog.memo = (params, params_width, live)
            values = [*vars, *live]
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
    one of these rules.  Its
    live-outs are the stage-A gates that a stage-B step reads, and the
    output when it is in stage A.  A call runs stage B on
    ``[*vars, *live-out values]``, appending one result per step; step j
    reads slots ``b_lhs[j]`` and ``b_rhs[j]`` of that list and multiplies
    when ``b_mul[j]``.  Three flat tuples need about half the memory of
    one tuple per gate.

    Each live-out's form ``c + sum(a_j * p_(j+1))`` is split into *runs*
    ``(s, j0, 2^L - 1)``: coefficients ``s * 2^i`` on ``p_(j0+1+i)`` for
    i < L, taken greedily in param order.  ``fields`` holds
    ``(c, s, j0, mask)`` per live-out, for its first run, and ``extra``
    holds ``(live-out index, s, j0, mask)`` for each further run; a
    constant is ``(c, 0, 0, 0)``.  Stage A reads packed params R (see
    :func:`eval_gates`): a run is ``R >> j0 & mask``, and the live-out is
    ``c`` plus s times each of its runs.  ``memo`` is
    ``(R, R's width, live-out values)`` for the last R that ran
    (``(None, 0, None)`` before the first), so a class member evaluated at
    many points computes its live-outs once.

    Static bit bound: with every input at most w bits wide, every mul
    gate's value has at most ``mul_degree * w + mul_bits`` bits.  An input
    has degree 1 and 0 bits, a const degree 0 and its own bit length; add
    takes the max of each plus one bit, as bl(a + b) <= max(bl a, bl b) + 1;
    mul takes the sums, as bl(ab) <= bl a + bl b.
    """

    fields: tuple
    extra: tuple
    b_lhs: Tuple[int, ...]
    b_rhs: Tuple[int, ...]
    b_mul: Tuple[bool, ...]
    out: int
    mul_degree: int
    mul_bits: int
    memo: tuple = (None, 0, None)

    def run_stage_a(self, R: int) -> list:
        """The live-out values for packed params R."""
        if not R:  # every run reads 0, so each live-out is its constant
            return [c for c, _, _, _ in self.fields]
        live = [c + s * (R >> j0 & mask) for c, s, j0, mask in self.fields]
        for slot, s, j0, mask in self.extra:
            live[slot] += s * (R >> j0 & mask)
        return live


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


def _runs(coeffs: dict) -> list:
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
    return runs


def _prepare(c: Circuit, bitlen_guard: int) -> SlotProgram:
    """Build c's slot program and static bit bound in two passes over the
    gates.  Preparation folds no constant past the preparing call's guard
    (nor past the default guard), so it builds no value that this call's
    interpreter would refuse.

    The first pass computes each gate's degree, bit bound and affine form,
    which decides its stage, and marks the live-outs.  The second gives
    each var, live-out and stage-B result its index in stage B's list
    ``[*vars, *live-outs, *B results]``.
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
    next_b = n_vars + sum(is_live)
    full = []  # gate index -> slot in stage B's list
    fields, extra, b_lhs, b_rhs, b_mul = [], [], [], [], []
    for g, form, is_out in zip(gates, forms, is_live):
        if is_out:
            slot = len(fields)
            full.append(n_vars + slot)
            const, coeffs = form
            if coeffs:
                first, *rest = _runs(coeffs)
                fields.append((const, *first))
                extra.extend((slot, *run) for run in rest)
            else:
                fields.append((const, 0, 0, 0))
        elif form is not None:
            full.append(-1)
        elif g.op == VAR:
            full.append(g.name - 1)
        else:
            full.append(next_b)
            next_b += 1
            b_lhs.append(full[g.lhs])
            b_rhs.append(full[g.rhs])
            b_mul.append(g.op == MUL)
    return SlotProgram(
        tuple(fields), tuple(extra), tuple(b_lhs), tuple(b_rhs), tuple(b_mul),
        full[-1], mul_degree, mul_bits,
    )


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
