"""Compressed codes for the roots of a multivariate circuit on a cube.

Fix a circuit P with n variables and maximum individual syntactic degree d,
a side length q, and a reference point a (any integers, ideally a non-root
of P).  Every root b of P inside the cube S_q^n can then be encoded as a
triple

    (k, i, rest)  in  [n] x [d] x S_q^(n-1)

and decoded back.  The code space has n * d * q^(n-1) elements, so whenever
q > nd the roots are compressed below the trivial q^n count; surjectivity
of decoding onto the root set is what bounds the number of roots.

Encoding walks a hybrid path from a to b one coordinate at a time and stops
at the first position k where the polynomial starts vanishing; b_k is then
recoverable as the i-th smallest root in S_q of the univariate restriction
along coordinate k, which is a nonzero polynomial of degree at most d.

Both maps are total: structurally valid inputs that fall outside the
semantic contract (a is itself a root, the rank overflows, too few roots at
decode time) produce fixed default outputs, never errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Tuple

from .circuit import (
    VAR,
    Circuit,
    Gate,
    analyze_degrees,
    circuit,
    require_parameter_free,
)
from .config import DEFAULT_BITLEN_GUARD, DEFAULT_EXHAUSTION_CAP, DEFAULT_Q_CAP
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    PreconditionError,
)
from .evaluator import eval_gates, keep
from .unipoly import extract_unipoly, roots_in_cube

# Restrictions kept per context, oldest evicted first.  A context needs at
# most n * q^(n-1) of them, so small codecs never evict.
_ROOTS_CACHE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RootCode:
    """A compressed root: hybrid index k, root rank i, remaining coordinates."""

    k: int
    i: int
    rest: Tuple[int, ...]

    def validate(self, n: int, d: int, q: int) -> None:
        if not 1 <= self.k <= n:
            raise PreconditionError(f"k={self.k} outside [1..{n}]")
        if not 1 <= self.i <= d:
            raise PreconditionError(f"i={self.i} outside [1..{d}]")
        if len(self.rest) != n - 1:
            raise DimensionMismatchError(f"rest has length {len(self.rest)}, want {n - 1}")
        for v in self.rest:
            if not 0 <= v < q:
                raise PreconditionError(f"rest entry {v} outside S_{q}")


def serialize_code(code: RootCode) -> str:
    return f"{code.k}:{code.i}:{','.join(str(v) for v in code.rest)}"


def parse_code(text: str) -> RootCode:
    try:
        k_s, i_s, rest_s = text.strip().split(":")
        rest = tuple(int(v) for v in rest_s.split(",")) if rest_s else ()
        return RootCode(int(k_s), int(i_s), rest)
    except ValueError as e:
        raise PreconditionError(f"bad code {text!r}, want k:i:c1,c2,...") from e


class SZContext:
    """Everything fixed by one encoding scheme: P, its (n, d, q), and a.

    The reference point may have entries of arbitrary magnitude.  Whether it
    actually is a non-root is checked once and recorded as ``nonroot_ok``;
    a failing check is not an error because both maps have default outputs
    for that case.
    """

    def __init__(
        self,
        ckt: Circuit,
        n: int,
        d: int,
        q: int,
        nonroot: Iterable[int],
        q_cap: int = DEFAULT_Q_CAP,
        bitlen_guard: int = DEFAULT_BITLEN_GUARD,
    ):
        require_parameter_free(ckt, "the codec")
        if n < 1:
            raise PreconditionError("the codec needs dimension n >= 1")
        if n != ckt.n_vars:
            raise DimensionMismatchError(f"n={n} but circuit has {ckt.n_vars} variables")
        if q < 1:
            raise PreconditionError("q must be positive")
        if q > q_cap:
            raise CapExceededError(f"q={q} exceeds the cap {q_cap}")
        report = analyze_degrees(ckt)
        if d < max(1, report.max_individual):
            raise PreconditionError(
                f"d={d} below the maximum individual syntactic degree {report.max_individual}"
            )
        nonroot = tuple(nonroot)
        if len(nonroot) != n:
            raise DimensionMismatchError(f"nonroot has length {len(nonroot)}, want {n}")
        self.circuit = ckt
        self.n = n
        self.d = d
        self.q = q
        self.nonroot = nonroot
        self.bitlen_guard = bitlen_guard
        keep(ckt, bitlen_guard)  # encode and decode evaluate P many times
        self.nonroot_ok = self._eval(nonroot) != 0
        self._roots_cache: dict = {}

    def _eval(self, point: Tuple[int, ...]) -> int:
        return eval_gates(self.circuit, point, 0, self.bitlen_guard)

    def default_code(self) -> RootCode:
        return RootCode(1, 1, (0,) * (self.n - 1))

    def default_point(self) -> Tuple[int, ...]:
        return (0,) * self.n

    def _restriction_roots(self, k: int, fixed: Tuple[int, ...]) -> Tuple[int, ...]:
        """Distinct S_q-roots of P with all coordinates but the k-th fixed.

        ``fixed`` supplies the other n-1 coordinates in order.  The
        restriction is materialized as a univariate circuit (constants
        plugged in place of the fixed variables) and its coefficient vector
        drives the root scan, mirroring the correctness argument.
        """
        key = (k, fixed)
        hit = self._roots_cache.get(key)
        if hit is not None:
            return hit
        restricted = restrict(self.circuit, k, fixed)
        poly = extract_unipoly(restricted, self.d, self.bitlen_guard)
        roots = roots_in_cube(poly, self.q, q_cap=self.q, bitlen_guard=self.bitlen_guard)
        if len(self._roots_cache) >= _ROOTS_CACHE_ENTRIES:
            del self._roots_cache[next(iter(self._roots_cache))]  # the oldest
        self._roots_cache[key] = roots
        return roots

    def in_cube(self, point: Iterable[int]) -> bool:
        return all(0 <= v < self.q for v in point)


def restrict(c: Circuit, k: int, fixed: Tuple[int, ...]) -> Circuit:
    """Plug all variables except x_k with the given constants.

    The k-th variable becomes x1 of the univariate result; ``fixed`` lists
    values for x_1..x_{k-1}, x_{k+1}..x_n in order.  Individual degrees
    never rise under restriction, so the result stays within the same
    degree budget as c.
    """
    require_parameter_free(c, "restriction")
    if not 1 <= k <= c.n_vars:
        raise PreconditionError(f"k={k} outside [1..{c.n_vars}]")
    if len(fixed) != c.n_vars - 1:
        raise DimensionMismatchError(
            f"{len(fixed)} fixed values for {c.n_vars} variables"
        )
    x1 = Gate.var(1)
    values = (*fixed[: k - 1], None, *fixed[k - 1 :])
    subst = {j: x1 if v is None else Gate.const(v) for j, v in enumerate(values, 1)}
    # A valid circuit names exactly the variables 1..n_vars, so x_k occurs
    # and the result has dimension exactly 1.
    return circuit([subst[g.name] if g.op == VAR else g for g in c.gates])


def encode_root(ctx: SZContext, b: Iterable[int]) -> RootCode:
    """Encode a root b of P in S_q^n relative to the context's non-root.

    Returns the default code (1, 1, 0...) whenever the semantic premises
    fail: P vanishes at the reference point, b is not a root, or the root
    rank overflows d (which provably cannot happen for genuine roots).
    """
    b = tuple(b)
    if len(b) != ctx.n:
        raise DimensionMismatchError(f"point has length {len(b)}, want {ctx.n}")
    if not ctx.in_cube(b):
        raise PreconditionError(f"point {b} is not inside S_{ctx.q}^{ctx.n}")
    if not ctx.nonroot_ok or ctx._eval(b) != 0:
        return ctx.default_code()
    a = ctx.nonroot
    # First hybrid position where P starts vanishing; k = n is guaranteed
    # to stop the loop because P(b) = 0.
    k = ctx.n
    for j in range(1, ctx.n + 1):
        hybrid = b[:j] + a[j:]
        if ctx._eval(hybrid) == 0:
            k = j
            break
    fixed = b[: k - 1] + a[k:]
    roots = ctx._restriction_roots(k, fixed)
    try:
        rank = roots.index(b[k - 1]) + 1
    except ValueError:  # unreachable for a genuine root; defensive default
        return ctx.default_code()
    if rank > ctx.d:
        return ctx.default_code()
    return RootCode(k, rank, b[: k - 1] + b[k:])


def decode_code(ctx: SZContext, code: RootCode) -> Tuple[int, ...]:
    """Decode a root code back to a point of S_q^n; total on valid codes."""
    code.validate(ctx.n, ctx.d, ctx.q)
    if not ctx.nonroot_ok:
        return ctx.default_point()
    k, i, rest = code.k, code.i, code.rest
    fixed = rest[: k - 1] + ctx.nonroot[k:]
    roots = ctx._restriction_roots(k, fixed)
    if len(roots) < i:
        return ctx.default_point()
    r = roots[i - 1]
    return rest[: k - 1] + (r,) + rest[k - 1 :]


# -- numeric code packing --------------------------------------------------

def code_space_size(n: int, d: int, q: int) -> int:
    return n * d * q ** (n - 1)


def pack_code(code: RootCode, n: int, d: int, q: int) -> int:
    """Bijection onto [n*d*q^(n-1)]: mixed radix, rest in base q, 1-based."""
    code.validate(n, d, q)
    idx = (code.k - 1) * d + (code.i - 1)
    idx *= q ** (n - 1)
    for j, v in enumerate(code.rest):
        idx += v * q**j
    return idx + 1


def unpack_code(idx: int, n: int, d: int, q: int) -> RootCode:
    if not 1 <= idx <= code_space_size(n, d, q):
        raise PreconditionError(f"index {idx} outside [1..{code_space_size(n, d, q)}]")
    v = idx - 1
    block = q ** (n - 1)
    head, tail = divmod(v, block)
    k, i = divmod(head, d)
    rest = []
    for _ in range(n - 1):
        tail, digit = divmod(tail, q)
        rest.append(digit)
    return RootCode(k + 1, i + 1, tuple(rest))


def all_codes(n: int, d: int, q: int) -> Iterable[RootCode]:
    for idx in range(1, code_space_size(n, d, q) + 1):
        yield unpack_code(idx, n, d, q)


# -- brute-force oracle ----------------------------------------------------

def count_roots_brute(
    ckt: Circuit,
    n: int,
    q: int,
    cap: int = DEFAULT_EXHAUSTION_CAP,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> int:
    """|{b in S_q^n : P(b) = 0}| by exhaustive evaluation."""
    return sum(1 for _ in _scan_roots(ckt, n, q, cap, bitlen_guard, "root counting"))


def cube_roots(
    ckt: Circuit,
    n: int,
    q: int,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> List[Tuple[int, ...]]:
    """The full root set Z_{P,q} in lexicographic order (test-scale only)."""
    return list(_scan_roots(ckt, n, q, cap, DEFAULT_BITLEN_GUARD, "root listing"))


def _scan_roots(ckt: Circuit, n: int, q: int, cap: int, bitlen_guard: int, what: str):
    """The roots on S_q^n in lexicographic order, as a lazy scan whose
    preconditions are checked before it is returned."""
    require_parameter_free(ckt, what)
    if n != ckt.n_vars:
        raise DimensionMismatchError(f"n={n} but circuit has {ckt.n_vars} variables")
    if q**n > cap:
        raise CapExceededError(f"q^n = {q ** n} exceeds the cap {cap}")
    points = product(range(q), repeat=n)
    return (p for p in points if eval_gates(ckt, p, 0, bitlen_guard) == 0)
