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

from .circuit import ADD, CONST, MUL, PARAM, VAR, Circuit, syntactic_total_degree
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
    """Build c's slot program and static bit bound in one pass over the
    gates, numbering slots ``[*vars, *params, *consts, *step results]``,
    then sort the steps into the two stages."""
    consts = tuple(g.value for g in c.gates if g.op == CONST)
    n_inputs = c.n_vars + c.n_params
    deg = [1] * n_inputs + [0] * len(consts)
    bits = [0] * n_inputs + [v.bit_length() for v in consts]
    slot = [0] * len(c.gates)  # gate index -> slot
    lhs_slots, rhs_slots, muls = [], [], []
    mul_degree = mul_bits = 0
    n_const = 0
    for i, g in enumerate(c.gates):
        op = g.op
        if op == VAR:
            slot[i] = g.name - 1
        elif op == PARAM:
            slot[i] = c.n_vars + g.name - 1
        elif op == CONST:
            slot[i] = n_inputs + n_const
            n_const += 1
        else:
            lhs, rhs = slot[g.lhs], slot[g.rhs]
            is_mul = op == MUL
            if is_mul:
                d, b = deg[lhs] + deg[rhs], bits[lhs] + bits[rhs]
                mul_degree, mul_bits = max(mul_degree, d), max(mul_bits, b)
            else:
                d, b = max(deg[lhs], deg[rhs]), max(bits[lhs], bits[rhs]) + 1
            slot[i] = len(deg)
            deg.append(d)
            bits.append(b)
            lhs_slots.append(lhs)
            rhs_slots.append(rhs)
            muls.append(is_mul)
    steps = (lhs_slots, rhs_slots, muls)
    stage_a, stage_b, out = _split_stages(c.n_vars, len(deg) - len(muls), steps, slot[-1])
    return SlotProgram(
        consts, *map(tuple, stage_a), *map(tuple, stage_b), out, mul_degree, mul_bits
    )


def _split_stages(n_vars: int, first: int, steps, out: int):
    """Sort steps into stage A (reads no variable) and stage B.

    Slots below ``first`` (vars, params, consts) keep their order; step
    results move to ``[*A results, *B results]`` after them.  ``place``
    gives a var or stage-B slot's index in the full list and any other
    slot's index in the stage-A list, which starts after the vars; each
    index is made once per slot, so the step tuples share them.
    """
    reads_var = [True] * n_vars + [False] * (first - n_vars)
    for lhs, rhs in zip(steps[0], steps[1]):
        reads_var.append(reads_var[lhs] or reads_var[rhs])
    n_a = reads_var.count(False) - (first - n_vars)  # variable-free steps
    if not n_a:  # every step is in stage B, already in its place
        return ((), (), ()), steps, out
    b_start = first + n_a
    place = list(range(n_vars)) + list(range(first - n_vars))

    def in_full_list(k: int) -> int:
        return place[k] if reads_var[k] else place[k] + n_vars

    stage_a, stage_b = ([], [], []), ([], [], [])
    for j, (lhs, rhs, is_mul) in enumerate(zip(*steps), first):
        if reads_var[j]:
            place.append(b_start + len(stage_b[2]))
            stage, lhs, rhs = stage_b, in_full_list(lhs), in_full_list(rhs)
        else:
            place.append(first - n_vars + len(stage_a[2]))
            stage, lhs, rhs = stage_a, place[lhs], place[rhs]
        stage[0].append(lhs)
        stage[1].append(rhs)
        stage[2].append(is_mul)
    return stage_a, stage_b, in_full_list(out)


def eval_arithmetic(
    c: Circuit,
    asg: Assignment,
    degree_bound: int,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """Evaluate c at asg, refusing circuits of syntactic total degree > bound."""
    _check_dims(c, asg)
    total = syntactic_total_degree(c)
    if total > degree_bound:
        raise DegreeBoundError(f"syntactic degree {total} > {degree_bound}")
    return eval_gates(c, asg.vars, asg.params, bitlen_guard)
