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
            key, params_width, stage_a = prog.memo
            if params is not key and params != key:
                params_width, stage_a = _width(params), None
            w = (
                max(max(vars).bit_length(), min(vars).bit_length(), params_width)
                if vars else params_width
            )
            if prog.mul_degree * w + prog.mul_bits <= bitlen_guard:
                if stage_a is None:
                    stage_a = prog.run_stage_a(params)
                    # One assignment: no reader sees a key with another
                    # vector's values.  A list argument never hits, as a
                    # list never equals the stored tuple.
                    prog.memo = (tuple(params), params_width, stage_a)
                values = [*vars, *stage_a]
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


@dataclass(slots=True)
class SlotProgram:
    """A circuit as straight-line code in two stages.

    Stage A holds the binary gates that read only params, consts and
    other stage-A results; its list is ``[*params, *consts, *A results]``
    and depends on the parameter vector alone.  Stage B holds every
    binary gate that reads a variable, directly or through another gate;
    a call runs it on ``[*vars, *stage-A list]``, appending one result
    per step.  Step j of a stage reads slots ``lhs[j]`` and ``rhs[j]``
    of its list and multiplies when ``is_mul[j]``.  Three flat tuples
    per stage need about half the memory of one tuple per gate.

    ``memo`` is ``(params, params width, stage-A list)`` for the last
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
    b_lhs: Tuple[int, ...]
    b_rhs: Tuple[int, ...]
    b_mul: Tuple[bool, ...]
    out: int
    mul_degree: int
    mul_bits: int
    memo: tuple = (None, 0, None)

    def run_stage_a(self, params) -> list:
        """The stage-A list for this parameter vector."""
        values = [*params, *self.consts]
        append = values.append
        for lhs, rhs, is_mul in zip(self.a_lhs, self.a_rhs, self.a_mul):
            append(values[lhs] * values[rhs] if is_mul else values[lhs] + values[rhs])
        return values


def _prepare(c: Circuit) -> SlotProgram:
    """Build c's slot program and static bit bound in two passes over the
    gates.

    The first pass marks the gates that read a variable, directly or
    through another gate, and counts the binary gates that read none: the
    stage-A steps.  The second gives each slot its final index: a var or a
    stage-B result its index in the full list, a param, a const or a
    stage-A result its index in the stage-A list.  That list follows the
    vars in the full list, so a stage-B step reads a stage-A slot
    ``n_vars`` further on.
    """
    gates = c.gates
    n_vars = c.n_vars
    reads_var = [False] * len(gates)
    n_a = 0
    for i, g in enumerate(gates):
        op = g.op
        if op == ADD or op == MUL:
            if reads_var[g.lhs] or reads_var[g.rhs]:
                reads_var[i] = True
            else:
                n_a += 1
        elif op == VAR:
            reads_var[i] = True
    consts = tuple(g.value for g in gates if g.op == CONST)
    next_const = c.n_params
    next_a = next_const + len(consts)
    next_b = n_vars + next_a + n_a
    slot = [0] * len(gates)  # gate index -> slot
    deg = [0] * len(gates)
    bits = [0] * len(gates)
    a_lhs, a_rhs, a_mul, b_lhs, b_rhs, b_mul = [], [], [], [], [], []
    mul_degree = mul_bits = 0
    for i, g in enumerate(gates):
        op = g.op
        if op == VAR or op == PARAM:
            slot[i] = g.name - 1
            deg[i] = 1
        elif op == CONST:
            slot[i] = next_const
            next_const += 1
            bits[i] = g.value.bit_length()
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
                slot[i] = next_b
                next_b += 1
                b_lhs.append(slot[lhs] if reads_var[lhs] else slot[lhs] + n_vars)
                b_rhs.append(slot[rhs] if reads_var[rhs] else slot[rhs] + n_vars)
                b_mul.append(is_mul)
            else:
                slot[i] = next_a
                next_a += 1
                a_lhs.append(slot[lhs])
                a_rhs.append(slot[rhs])
                a_mul.append(is_mul)
    out = slot[-1] if reads_var[-1] else slot[-1] + n_vars
    return SlotProgram(
        consts, tuple(a_lhs), tuple(a_rhs), tuple(a_mul),
        tuple(b_lhs), tuple(b_rhs), tuple(b_mul), out, mul_degree, mul_bits,
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
