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

from .circuit import ADD, MUL, PARAM, VAR, Circuit, syntactic_total_degree
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
    """
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
