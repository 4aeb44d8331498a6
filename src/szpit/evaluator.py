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
from typing import Optional, Tuple

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
    no per-gate checks; its stage A, the gates that read no variable,
    runs once per parameter vector.  Every other call interprets, so
    results and errors are those of the interpreter.
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
# past it (a long param add-chain builds quadratically many) stage A keeps
# its step loop.
_FORM_CAP = 8


@dataclass(slots=True)
class SlotProgram:
    """A circuit as straight-line code in two stages.

    Stage A holds the binary gates that read only params, consts and
    other stage-A results; its list is ``[*params, *consts, *A results]``
    and depends on the parameter vector alone.  Stage B holds every
    binary gate that reads a variable, directly or through another gate.
    Its live-outs are the stage-A slots ``live`` that some stage-B step
    reads, plus the output when it reads no variable; a call runs stage B
    on ``[*vars, *live-out values]``, appending one result per step.  Step
    j of a stage reads slots ``lhs[j]`` and ``rhs[j]`` of its list and
    multiplies when ``is_mul[j]``.  Three flat tuples per stage need about
    half the memory of one tuple per gate.

    ``forms``, when not None, gives each live-out as an affine form in the
    params, ``(c, coeffs, getter)`` with value
    ``c + sum(coeffs[j] * getter(params)[j])``; stage A then runs no
    steps.  It is None for a parameter-free circuit, whose stage A runs
    once, and when a stage-A step multiplies two param forms or the forms
    outgrow ``_FORM_CAP`` entries per gate; stage A then runs its steps
    and picks out the live-outs.

    ``memo`` is ``(params, params width, live-out values)`` for the last
    parameter vector that ran (``(None, 0, None)`` before the first), so
    a class member evaluated at many points runs stage A once.

    Static bit bound: with every input at most w bits wide, every mul
    gate's value has at most ``mul_degree * w + mul_bits`` bits.  An input
    has degree 1 and 0 bits, a const degree 0 and its own bit length; add
    takes the max of each plus one bit, as bl(a + b) <= max(bl a, bl b) + 1;
    mul takes the sums, as bl(ab) <= bl a + bl b.
    """

    consts: Tuple[int, ...]
    a_lhs: Tuple[int, ...]
    a_rhs: Tuple[int, ...]
    a_mul: Tuple[bool, ...]
    live: Tuple[int, ...]
    forms: Optional[tuple]
    b_lhs: Tuple[int, ...]
    b_rhs: Tuple[int, ...]
    b_mul: Tuple[bool, ...]
    out: int
    mul_degree: int
    mul_bits: int
    memo: tuple = (None, 0, None)

    def run_stage_a(self, params) -> list:
        """The live-out values for this parameter vector."""
        if self.forms is not None:
            return [c + sum(map(mul, coeffs, get(params))) for c, coeffs, get in self.forms]
        values = [*params, *self.consts]
        append = values.append
        for lhs, rhs, is_mul in zip(self.a_lhs, self.a_rhs, self.a_mul):
            append(values[lhs] * values[rhs] if is_mul else values[lhs] + values[rhs])
        return [values[s] for s in self.live]


def _combine(f, g, is_mul: bool):
    """The affine form of f + g or f * g, or None for a product of two
    param forms.  A form is ``(constant, {param slot: coefficient})``."""
    (a, fa), (b, fb) = f, g
    if not is_mul:
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
    if idx:
        k = idx[0]
        return lambda params: (params[k],)
    return lambda params: ()


def _prepare(c: Circuit) -> SlotProgram:
    """Build c's slot program and static bit bound in two passes over the
    gates.

    The first pass marks the gates that read a variable, directly or
    through another gate, and the live-outs.  The second gives each slot
    its final index: a param, a const or a stage-A result its index in the
    stage-A list; a var, a live-out or a stage-B result its index in
    stage B's list ``[*vars, *live-outs, *B results]``.  When c has params
    it also builds each stage-A slot's affine form as it places it.
    """
    gates = c.gates
    n_vars = c.n_vars
    reads_var = [False] * len(gates)
    is_live = [False] * len(gates)
    for i, g in enumerate(gates):
        op = g.op
        if op == ADD or op == MUL:
            lhs, rhs = g.lhs, g.rhs
            if reads_var[lhs] or reads_var[rhs]:
                reads_var[i] = True
                if not reads_var[lhs]:
                    is_live[lhs] = True
                if not reads_var[rhs]:
                    is_live[rhs] = True
        elif op == VAR:
            reads_var[i] = True
    if not reads_var[-1]:
        is_live[-1] = True
    consts = tuple(g.value for g in gates if g.op == CONST)
    next_const = c.n_params
    next_a = next_const + len(consts)
    next_b = n_vars + sum(is_live)
    slot = [0] * len(gates)  # gate index -> stage-A slot
    full = [0] * len(gates)  # gate index -> slot in stage B's list
    deg = [0] * len(gates)
    bits = [0] * len(gates)
    forms = [None] * len(gates) if c.n_params else None
    budget = _FORM_CAP * len(gates)
    a_lhs, a_rhs, a_mul, b_lhs, b_rhs, b_mul, live = [], [], [], [], [], [], []
    mul_degree = mul_bits = 0
    for i, g in enumerate(gates):
        op = g.op
        if op == VAR:
            full[i] = g.name - 1
            deg[i] = 1
        elif op == PARAM:
            slot[i] = g.name - 1
            deg[i] = 1
            if forms is not None:
                forms[i] = (0, {slot[i]: 1})
        elif op == CONST:
            slot[i] = next_const
            next_const += 1
            bits[i] = g.value.bit_length()
            if forms is not None:
                forms[i] = (g.value, {})
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
            if reads_var[i]:
                full[i] = next_b
                next_b += 1
                b_lhs.append(full[lhs])
                b_rhs.append(full[rhs])
                b_mul.append(is_mul)
                continue
            slot[i] = next_a
            next_a += 1
            a_lhs.append(slot[lhs])
            a_rhs.append(slot[rhs])
            a_mul.append(is_mul)
            if forms is not None:
                form = _combine(forms[lhs], forms[rhs], is_mul)
                if form is None or len(form[1]) > budget:
                    forms = None  # stage A keeps its step loop
                else:
                    budget -= len(form[1])
                    forms[i] = form
        if is_live[i]:
            full[i] = n_vars + len(live)
            live.append(i)
    if forms is not None:
        forms = tuple(
            (const, tuple(coeffs.values()), _getter(tuple(coeffs)))
            for const, coeffs in map(forms.__getitem__, live)
        )
    return SlotProgram(
        consts, tuple(a_lhs), tuple(a_rhs), tuple(a_mul),
        tuple(slot[i] for i in live), forms,
        tuple(b_lhs), tuple(b_rhs), tuple(b_mul), full[-1], mul_degree, mul_bits,
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
