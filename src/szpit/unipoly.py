"""Dense univariate polynomials over the integers.

A ``UniPoly`` stores coefficients lowest degree first, length d+1 for
degree bound d.  "Degree at most d" is the contract throughout: trailing
zero coefficients are permitted and meaningful, so two values of different
lengths are different objects even when they agree as polynomials.

The three nontrivial operations:

  extract_unipoly   coefficients of the polynomial computed by a univariate
                    circuit, by structural induction over the gates
                    (constant/variable base cases, coefficient-wise sums
                    for add gates, truncated convolution for mul gates).

  enumerate_roots   the sorted distinct roots in S_q = {0..q-1}, padded to
                    exactly d entries with the end-of-list marker q.  For a
                    nonzero polynomial this list provably contains every
                    root in S_q and never overflows its d slots.

  deflate           synthetic division by a known root v: coefficients
                    b_{k-i} = a_{k-i+1} + b_{k-i+1} * v, giving
                    a(u) = (u - v) * b(u) for every integer u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .circuit import ADD, CONST, VAR, Circuit, require_parameter_free
from .config import DEFAULT_BITLEN_GUARD, DEFAULT_Q_CAP
from .errors import (
    BitLengthGuardError,
    CapExceededError,
    DegreeBoundError,
    DimensionMismatchError,
    PreconditionError,
)


@dataclass(frozen=True)
class UniPoly:
    """coeffs[i] is the coefficient of x^i; length is degree bound + 1."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise PreconditionError("a UniPoly needs at least one coefficient")

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)

    def padded(self, d: int) -> "UniPoly":
        """The same polynomial under degree bound d >= current bound."""
        if d < self.degree_bound:
            raise PreconditionError(f"cannot pad degree bound {self.degree_bound} down to {d}")
        return UniPoly(self.coeffs + (0,) * (d - self.degree_bound))


def unipoly(*coeffs: int) -> UniPoly:
    return UniPoly(tuple(coeffs))


def parse_unipoly(text: str) -> UniPoly:
    """Comma-separated decimal coefficients, lowest degree first."""
    try:
        return UniPoly(tuple(int(tok) for tok in text.strip().split(",")))
    except ValueError as e:
        raise PreconditionError(f"bad coefficient list {text!r}") from e


def serialize_unipoly(p: UniPoly) -> str:
    return ",".join(str(v) for v in p.coeffs)


def coef(p: UniPoly, i: int) -> int:
    if not 0 <= i <= p.degree_bound:
        raise PreconditionError(f"coefficient index {i} out of range 0..{p.degree_bound}")
    return p.coeffs[i]


def eval_unipoly(p: UniPoly, u: int, bitlen_guard: int = DEFAULT_BITLEN_GUARD) -> int:
    """Horner evaluation with the same bit-length guard as circuit evaluation."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * u + c
        if acc.bit_length() > bitlen_guard:
            raise BitLengthGuardError(f"value exceeds {bitlen_guard}-bit guard")
    return acc


def extract_unipoly(c: Circuit, d: int, bitlen_guard: int = DEFAULT_BITLEN_GUARD) -> UniPoly:
    """Coefficients of the univariate polynomial computed by circuit c.

    Requires at most one variable, no parameter gates, and individual
    syntactic degree at most d in that variable (the degree of the
    polynomial the circuit computes).  The result P satisfies
    P(u) = c(u) for every integer u.  A mul gate with a coefficient
    wider than the bit-length guard raises, as evaluation does.
    """
    if c.n_vars > 1:
        raise DimensionMismatchError(f"extraction needs at most 1 variable, got {c.n_vars}")
    require_parameter_free(c, "extraction")
    if d < 0:
        raise PreconditionError("degree bound must be non-negative")
    # Beside each gate's coefficient row sits its syntactic degree in x:
    # var 1, const 0, add max, mul sum.  A gate above d gets no row, as every
    # gate reading it is above d too; so each row is exact, and the output's
    # degree decides whether the bound holds.
    # ``top`` bounds every coefficient's bit length so far: a const brings
    # its own, an add one bit more, a mul twice as many plus the carries of
    # a width-term sum.  A mul row is checked against the guard only once
    # the bound passes it.
    width = d + 1
    carries = width.bit_length()
    top = 1
    deg = [0] * len(c.gates)
    table: List[List[int]] = [[]] * len(c.gates)
    for i, g in enumerate(c.gates):
        op = g.op
        if op == CONST:
            row = [0] * width
            row[0] = g.value
            if row[0].bit_length() > top:
                top = row[0].bit_length()
        elif op == VAR:
            deg[i] = 1
            if d < 1:
                continue
            row = [0] * width
            row[1] = 1
        else:
            a, b = table[g.lhs], table[g.rhs]
            if op == ADD:
                top += 1
                deg[i] = max(deg[g.lhs], deg[g.rhs])
                if deg[i] > d:
                    continue
                row = [a[k] + b[k] for k in range(width)]
            else:  # MUL: convolution, exact as both operands are within d
                deg[i] = deg[g.lhs] + deg[g.rhs]
                if deg[i] > d:
                    continue
                row = [0] * width
                for t, at in enumerate(a):
                    if at:
                        for k in range(t, width):
                            bk = b[k - t]
                            if bk:
                                row[k] += at * bk
                top = 2 * top + carries
                if top > bitlen_guard and (
                    max(max(row).bit_length(), min(row).bit_length()) > bitlen_guard
                ):
                    raise BitLengthGuardError(
                        f"gate {i}: value exceeds {bitlen_guard}-bit guard"
                    )
        table[i] = row
    if deg[-1] > d:
        raise DegreeBoundError(f"syntactic degree {deg[-1]} in x > bound {d}")
    return UniPoly(tuple(table[-1]))


def enumerate_roots(p: UniPoly, q: int, q_cap: int = DEFAULT_Q_CAP) -> Tuple[int, ...]:
    """The sorted distinct roots of p in S_q, padded to length d with marker q.

    For nonzero p the returned entries before the markers are all the roots
    of p in S_q; for the zero polynomial the list simply truncates at d.
    """
    d = p.degree_bound
    if d < 1:
        raise PreconditionError("enumerate_roots needs degree bound >= 1")
    if q < 1:
        raise PreconditionError("q must be positive")
    if q > q_cap:
        raise CapExceededError(f"q={q} exceeds the cap {q_cap}")
    roots: List[int] = []
    for u in range(q):
        if eval_unipoly(p, u) == 0:
            roots.append(u)
            if len(roots) == d:
                break
    roots.extend([q] * (d - len(roots)))
    return tuple(roots)


def roots_in_cube(p: UniPoly, q: int, q_cap: int = DEFAULT_Q_CAP) -> Tuple[int, ...]:
    """All distinct roots of p in S_q, ascending, without markers or padding."""
    if q > q_cap:
        raise CapExceededError(f"q={q} exceeds the cap {q_cap}")
    return tuple(u for u in range(q) if eval_unipoly(p, u) == 0)


def deflate(a: UniPoly, v: int) -> UniPoly:
    """Divide out a known root: return b with a(u) = (u - v) * b(u) for all u."""
    k = a.degree_bound
    if k < 1:
        raise PreconditionError("cannot deflate a degree-bound-0 polynomial")
    if eval_unipoly(a, v) != 0:
        raise PreconditionError(f"{v} is not a root")
    b = [0] * k
    carry = 0  # b_k = 0
    for i in range(1, k + 1):
        carry = a.coeffs[k - i + 1] + carry * v
        b[k - i] = carry
    return UniPoly(tuple(b))
