"""Dense univariate polynomials over the integers.

A ``UniPoly`` stores coefficients lowest degree first, length d+1 for
degree bound d.  "Degree at most d" is the contract throughout: trailing
zero coefficients are permitted and meaningful, so two values of different
lengths are different objects even when they agree as polynomials.

The three nontrivial operations:

  extract_unipoly   coefficients of the polynomial computed by a univariate
                    circuit, by structural induction over the gates
                    (constant/variable base cases, coefficient-wise sums
                    for add gates, truncated convolution for mul gates;
                    a gate that reads no x stays a plain int).

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
from itertools import islice
from operator import add
from typing import Iterator, Tuple

from .circuit import ADD, CONST, VAR, _SPACE, Circuit, _ascii_int, require_parameter_free
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


def unipoly(*coeffs: int) -> UniPoly:
    return UniPoly(tuple(coeffs))


def parse_unipoly(text: str) -> UniPoly:
    """Comma-separated decimal coefficients, lowest degree first."""
    try:
        return UniPoly(tuple(map(_ascii_int, text.strip(_SPACE).split(","))))
    except ValueError as e:
        raise PreconditionError(f"bad coefficient list {text!r}") from e


def serialize_unipoly(p: UniPoly) -> str:
    return ",".join(str(v) for v in p.coeffs)


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
    # Beside each gate's value sits its syntactic degree in x: var 1,
    # const 0, add max, mul sum.  A gate of degree 0 is a plain int; a gate
    # that reads x gets a coefficient row of d + 1 entries.  A gate above d
    # gets neither, as every gate reading it is above d too; so each value
    # is exact, and the output's degree decides whether the bound holds.
    # ``top`` bounds every coefficient's bit length so far: a const brings
    # its own, an add one bit more, a mul twice as many plus the carries of
    # a width-term sum.  A mul's value is checked against the guard only
    # once the bound passes it.
    width = d + 1
    carries = width.bit_length()
    top = 1
    deg = [0] * len(c.gates)
    table: list = [0] * len(c.gates)
    for i, g in enumerate(c.gates):
        op = g.op
        if op == CONST:
            v = g.value
            if v.bit_length() > top:
                top = v.bit_length()
        elif op == VAR:
            deg[i] = 1
            if d < 1:
                continue
            v = [0] * width
            v[1] = 1
        else:
            dl, dr = deg[g.lhs], deg[g.rhs]
            a, b = table[g.lhs], table[g.rhs]
            if op == ADD:
                top += 1
                deg[i] = e = dl if dl > dr else dr
                if e > d:
                    continue
                if not dl:
                    if dr:
                        v = b.copy()
                        v[0] += a
                    else:
                        v = a + b
                elif not dr:
                    v = a.copy()
                    v[0] += b
                else:
                    v = list(map(add, a, b))
            else:
                deg[i] = e = dl + dr
                if e > d:
                    continue
                # Scale by a scalar operand; otherwise convolve, exact as
                # both operands are within d, and a row is zero past its
                # gate's degree.
                if not dl:
                    v = a * b if not dr else [a * t for t in b]
                elif not dr:
                    v = [t * b for t in a]
                else:
                    v = [0] * width
                    for t in range(dl + 1):
                        at = a[t]
                        if at:
                            for k in range(dr + 1):
                                bk = b[k]
                                if bk:
                                    v[t + k] += at * bk
                top = 2 * top + carries
                if top > bitlen_guard and (
                    v.bit_length() if not e
                    else max(max(v).bit_length(), min(v).bit_length())
                ) > bitlen_guard:
                    raise BitLengthGuardError(
                        f"gate {i}: value exceeds {bitlen_guard}-bit guard"
                    )
        table[i] = v
    if deg[-1] > d:
        raise DegreeBoundError(f"syntactic degree {deg[-1]} in x > bound {d}")
    out = table[-1]
    return UniPoly((out,) + (0,) * d if not deg[-1] else tuple(out))


def enumerate_roots(
    p: UniPoly,
    q: int,
    q_cap: int = DEFAULT_Q_CAP,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> Tuple[int, ...]:
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
    roots = list(islice(_scan_roots(p, q, bitlen_guard), d))
    roots.extend([q] * (d - len(roots)))
    return tuple(roots)


def roots_in_cube(p: UniPoly, q: int, bitlen_guard: int = DEFAULT_BITLEN_GUARD) -> Tuple[int, ...]:
    """All distinct roots of p in S_q, ascending, without markers or padding;
    its caller, :class:`szpit.codec.SZContext`, has checked q against the cap."""
    return tuple(_scan_roots(p, q, bitlen_guard))


def _scan_roots(p: UniPoly, q: int, bitlen_guard: int) -> Iterator[int]:
    """The u in S_q with p(u) = 0, ascending and lazily; what
    ``eval_unipoly(p, u, bitlen_guard) == 0`` would say of each u, the
    guard's error included.

    Horner's partial sums at u in S_q are below (D+1) * 2^w * 2^(D*b) in
    magnitude, for w the widest coefficient's bits, D the degree bound and
    b = bitlen(q-1); so they have at most w + D*b + bitlen(D+1) bits.  When
    that static bound fits the guard, no evaluation can trip it, so
    the scan runs Horner without checks, and only at the u that can be
    roots: 0 when c_0 = 0, and the u >= 1 dividing the lowest nonzero
    coefficient c_j, as p(u) = u^j * p'(u) with p'(u) = c_j (mod u).  The
    zero polynomial vanishes at every u.  Past the bound, every u is
    evaluated under the guard.
    """
    coeffs = p.coeffs
    d = len(coeffs) - 1
    width = max(map(int.bit_length, coeffs))
    if width + d * (q - 1).bit_length() + (d + 1).bit_length() > bitlen_guard:
        yield from (u for u in range(q) if eval_unipoly(p, u, bitlen_guard) == 0)
        return
    j = 0
    while j <= d and not coeffs[j]:
        j += 1
    if j > d:
        yield from range(q)
        return
    low = coeffs[j]
    horner = coeffs[j:][::-1]  # p' = sum of c_(j+i) x^i, highest first
    if j and q > 0:
        yield 0
    for u in range(1, min(q, abs(low) + 1)):
        if low % u == 0:
            acc = 0
            for c in horner:
                acc = acc * u + c
            if not acc:
                yield u


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
