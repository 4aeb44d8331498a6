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
from operator import itemgetter, mul
from typing import Tuple

from .circuit import ADD, CONST, MUL, PARAM, VAR, Circuit, analyze_degrees
from .config import DEFAULT_BITLEN_GUARD
from .errors import BitLengthGuardError, DegreeBoundError, DimensionMismatchError


@dataclass(frozen=True)
class Assignment:
    """Integer inputs for a circuit's variables and parameters."""

    vars: Tuple[int, ...]
    params: Tuple[int, ...] = ()


def _check_dims(c: Circuit, asg: Assignment) -> None:
    if len(asg.vars) != c.n_vars:
        raise DimensionMismatchError(
            f"{len(asg.vars)} variable values for dimension {c.n_vars}"
        )
    if len(asg.params) != c.n_params:
        raise DimensionMismatchError(
            f"{len(asg.params)} parameter values for parametric dimension {c.n_params}"
        )


def eval_gates(
    c: Circuit,
    vars: Tuple[int, ...],
    params: Tuple[int, ...] = (),
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """Gate-by-gate evaluation with the bit-length guard but no degree check.

    Callers are expected to have validated the degree bound once; the hot
    loops (cube scans, hitting-set verification) go through here.
    ``params[k - 1]`` is the value of parameter pk; a class member
    ``(template, params)`` is evaluated as ``eval_gates(template, point, params)``.

    The first call on a circuit object interprets it.  The second prepares
    a :class:`SlotProgram` and keeps it on the object; from then on a call
    whose inputs have the circuit's dimensions, and whose input widths
    keep every mul gate provably under the guard, runs that program with
    no per-gate checks; its stage A, the gates that are affine in the
    params, runs once per parameter vector.  Every other call interprets,
    so results and errors are those of the interpreter.
    """
    prog = c._program
    if prog is None:  # one-shot circuits never pay for preparation
        object.__setattr__(c, "_program", False)
    else:
        if prog is False:
            prog = _prepare(c)
            object.__setattr__(c, "_program", prog)
        if len(vars) == c.n_vars and len(params) == c.n_params:
            key, params_width, live = prog.memo
            if params is not key and params != key:
                params_width, live = _width(params), None
            w = (
                max(max(vars).bit_length(), min(vars).bit_length(), params_width)
                if vars else params_width
            )
            if prog.mul_degree * w + prog.mul_bits <= bitlen_guard:
                if live is None:
                    live = prog.run_stage_a(params)
                    # One assignment: no reader sees a key with another
                    # vector's values.  A list argument never hits, as a
                    # list never equals the stored tuple.
                    prog.memo = (tuple(params), params_width, live)
                values = [*vars, *live]
                append = values.append
                for lhs, rhs, is_mul in zip(prog.b_lhs, prog.b_rhs, prog.b_mul):
                    append(values[lhs] * values[rhs] if is_mul else values[lhs] + values[rhs])
                return values[prog.out]
    return _interpret(c, vars, params, bitlen_guard)


def _width(values) -> int:
    """The largest bit length among the values (0 for none)."""
    return max(max(values).bit_length(), min(values).bit_length()) if values else 0


def _interpret(c: Circuit, vars, params, bitlen_guard: int) -> int:
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
            v = params[g.name - 1]
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
    coefficients per gate, and whose static bit bound is at most
    ``DEFAULT_BITLEN_GUARD``.  Stage B is every other binary gate: those
    that read a variable and those that break one of these rules.  Its
    live-outs are the stage-A gates that a stage-B step reads, and the
    output when it is in stage A.  A call runs stage B on
    ``[*vars, *live-out values]``, appending one result per step; step j
    reads slots ``b_lhs[j]`` and ``b_rhs[j]`` of that list and multiplies
    when ``b_mul[j]``.  Three flat tuples need about half the memory of
    one tuple per gate.

    ``forms`` gives each live-out as ``(c, coeffs, getter)``, with value
    ``c + sum(coeffs[j] * getter(params)[j])``; a constant has no
    coefficients and no getter.  ``memo`` is
    ``(params, params width, live-out values)`` for the last parameter
    vector that ran (``(None, 0, None)`` before the first), so a class
    member evaluated at many points computes its live-outs once.

    Static bit bound: with every input at most w bits wide, every mul
    gate's value has at most ``mul_degree * w + mul_bits`` bits.  An input
    has degree 1 and 0 bits, a const degree 0 and its own bit length; add
    takes the max of each plus one bit, as bl(a + b) <= max(bl a, bl b) + 1;
    mul takes the sums, as bl(ab) <= bl a + bl b.
    """

    forms: tuple
    b_lhs: Tuple[int, ...]
    b_rhs: Tuple[int, ...]
    b_mul: Tuple[bool, ...]
    out: int
    mul_degree: int
    mul_bits: int
    memo: tuple = (None, 0, None)

    def run_stage_a(self, params) -> list:
        """The live-out values for this parameter vector."""
        return [
            c + sum(map(mul, coeffs, get(params))) if coeffs else c
            for c, coeffs, get in self.forms
        ]


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


def _getter(idx: Tuple[int, ...]):
    """A function from params to the tuple of their entries at idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    k = idx[0]
    return lambda params: (params[k],)


def _prepare(c: Circuit) -> SlotProgram:
    """Build c's slot program and static bit bound in two passes over the
    gates.

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
            if f is not None and h is not None and b <= DEFAULT_BITLEN_GUARD:
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
    live, b_lhs, b_rhs, b_mul = [], [], [], []
    for g, form, is_out in zip(gates, forms, is_live):
        if is_out:
            full.append(n_vars + len(live))
            const, coeffs = form
            live.append(
                (const, tuple(coeffs.values()), _getter(tuple(coeffs)))
                if coeffs else (const, (), None)
            )
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
        tuple(live), tuple(b_lhs), tuple(b_rhs), tuple(b_mul), full[-1],
        mul_degree, mul_bits,
    )


def eval_arithmetic(
    c: Circuit,
    asg: Assignment,
    degree_bound: int,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """Evaluate c at asg, refusing circuits of syntactic total degree > bound."""
    _check_dims(c, asg)
    total = analyze_degrees(c).total
    if total > degree_bound:
        raise DegreeBoundError(f"syntactic degree {total} > {degree_bound}")
    return eval_gates(c, asg.vars, asg.params, bitlen_guard)
