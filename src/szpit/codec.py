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

from .circuit import VAR, _SPACE, Circuit, Gate, _ascii_int, analyze_degrees, circuit
from .circuit import require_parameter_free
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

# The variable of every restriction; gates are immutable, so all share it.
_X1 = Gate.var(1)


@dataclass(frozen=True, slots=True)
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


class _CodeBuilder:
    """RootCode's mutable twin; the swap is sound as for ``circuit._GateBuilder``."""

    __slots__ = RootCode.__slots__


def _code(k: int, i: int, rest: Tuple[int, ...]) -> RootCode:
    """``RootCode(k, i, rest)`` without ``object.__setattr__`` per field:
    plain stores into a :class:`_CodeBuilder`, then the class swap."""
    c = _CodeBuilder()
    c.k, c.i, c.rest = k, i, rest
    c.__class__ = RootCode
    return c


def serialize_code(code: RootCode) -> str:
    return f"{code.k}:{code.i}:{','.join(str(v) for v in code.rest)}"


def parse_code(text: str) -> RootCode:
    try:
        k_s, i_s, rest_s = text.strip(_SPACE).split(":")
        rest = tuple(map(_ascii_int, rest_s.split(","))) if rest_s else ()
        return RootCode(_ascii_int(k_s), _ascii_int(i_s), rest)
    except ValueError as e:
        raise PreconditionError(f"bad code {text!r}, want k:i:c1,c2,...") from e


class _RestrictionRoots(dict):
    """(k, fixed) -> the distinct S_q-roots of P with all coordinates but the
    k-th fixed, ``fixed`` giving the other n-1 in order.  A miss builds the
    restriction as a univariate circuit, whose coefficient vector drives the
    root scan as in the correctness argument, and evicts the oldest if full."""

    __slots__ = ("circuit", "d", "q", "bitlen_guard")

    def __init__(self, ckt: Circuit, d: int, q: int, bitlen_guard: int):
        super().__init__()
        self.circuit, self.d, self.q, self.bitlen_guard = ckt, d, q, bitlen_guard

    def __missing__(self, key: Tuple[int, Tuple[int, ...]]) -> Tuple[int, ...]:
        poly = extract_unipoly(restrict(self.circuit, *key), self.d, self.bitlen_guard)
        roots = roots_in_cube(poly, self.q, self.bitlen_guard)
        if len(self) >= _ROOTS_CACHE_ENTRIES:
            del self[next(iter(self))]  # the oldest
        self[key] = roots
        return roots


class SZContext:
    """Everything fixed by one encoding scheme: P, its (n, d, q), and a.

    The reference point may have entries of arbitrary magnitude.  Whether it
    actually is a non-root is checked once and recorded as ``nonroot_ok``;
    a failing check is not an error because both maps have default outputs
    for that case.  ``_roots_cache`` holds the roots of each restriction the
    maps have met, so a restriction met again costs one dict lookup.
    """

    def __init__(
        self,
        ckt: Circuit,
        n: int,
        d: int,
        q: int,
        nonroot: Iterable[int],
        bitlen_guard: int = DEFAULT_BITLEN_GUARD,
    ):
        require_parameter_free(ckt, "the codec")
        if n < 1:
            raise PreconditionError("the codec needs dimension n >= 1")
        if n != ckt.n_vars:
            raise DimensionMismatchError(f"n={n} but circuit has {ckt.n_vars} variables")
        if q < 1:
            raise PreconditionError("q must be positive")
        if q > DEFAULT_Q_CAP:
            raise CapExceededError(f"q={q} exceeds the cap {DEFAULT_Q_CAP}")
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
        self.nonroot_ok = eval_gates(ckt, nonroot, 0, bitlen_guard) != 0
        self._roots_cache = _RestrictionRoots(ckt, d, q, bitlen_guard)

    def default_code(self) -> RootCode:
        return _code(1, 1, (0,) * (self.n - 1))

    def default_point(self) -> Tuple[int, ...]:
        return (0,) * self.n

    def in_cube(self, point: Iterable[int]) -> bool:
        point = tuple(point)
        return not point or (min(point) >= 0 and max(point) < self.q)


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
    # subst[j] replaces x_j; a valid circuit names exactly the variables
    # 1..n_vars, so x_k occurs and the result has dimension exactly 1.
    subst = [None, *map(Gate.const, fixed)]
    subst.insert(k, _X1)
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
    c, guard = ctx.circuit, ctx.bitlen_guard
    if not ctx.nonroot_ok or eval_gates(c, b, 0, guard) != 0:
        return ctx.default_code()
    a = ctx.nonroot
    # First hybrid position where P starts vanishing.  Hybrid n is b itself,
    # just shown to vanish, so only j < n is evaluated and k = n otherwise.
    n = k = ctx.n
    for j in range(1, n):
        if eval_gates(c, b[:j] + a[j:], 0, guard) == 0:
            k = j
            break
    roots = ctx._roots_cache[k, b[: k - 1] + a[k:]]
    try:
        rank = roots.index(b[k - 1]) + 1
    except ValueError:  # unreachable for a genuine root; defensive default
        return ctx.default_code()
    if rank > ctx.d:
        return ctx.default_code()
    return _code(k, rank, b[: k - 1] + b[k:])


def decode_code(ctx: SZContext, code: RootCode) -> Tuple[int, ...]:
    """Decode a root code back to a point of S_q^n; total on valid codes."""
    code.validate(ctx.n, ctx.d, ctx.q)
    if not ctx.nonroot_ok:
        return ctx.default_point()
    k, i, rest = code.k, code.i, code.rest
    roots = ctx._roots_cache[k, rest[: k - 1] + ctx.nonroot[k:]]
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
    # Horner over the rest digits, most significant (the last) first.
    idx = (code.k - 1) * d + (code.i - 1)
    for v in reversed(code.rest):
        idx = idx * q + v
    return idx + 1


def unpack_code(idx: int, n: int, d: int, q: int) -> RootCode:
    block = q ** (n - 1)
    size = n * d * block
    if not 1 <= idx <= size:
        raise PreconditionError(f"index {idx} outside [1..{size}]")
    head, tail = divmod(idx - 1, block)
    k, i = divmod(head, d)
    rest = []
    for _ in range(n - 1):
        tail, digit = divmod(tail, q)
        rest.append(digit)
    return _code(k + 1, i + 1, tuple(rest))


def all_codes(n: int, d: int, q: int) -> Iterable[RootCode]:
    for idx in range(1, code_space_size(n, d, q) + 1):
        yield unpack_code(idx, n, d, q)


# -- brute-force oracle ----------------------------------------------------

def count_roots_brute(ckt: Circuit, n: int, q: int) -> int:
    """|{b in S_q^n : P(b) = 0}| by exhaustive evaluation."""
    return sum(1 for _ in _scan_roots(ckt, n, q, "root counting"))


def cube_roots(ckt: Circuit, n: int, q: int) -> List[Tuple[int, ...]]:
    """The full root set Z_{P,q} in lexicographic order (test-scale only)."""
    return list(_scan_roots(ckt, n, q, "root listing"))


def _scan_roots(ckt: Circuit, n: int, q: int, what: str):
    """The roots on S_q^n in lexicographic order, as a lazy scan whose
    preconditions are checked before it is returned."""
    require_parameter_free(ckt, what)
    if n != ckt.n_vars:
        raise DimensionMismatchError(f"n={n} but circuit has {ckt.n_vars} variables")
    if q**n > DEFAULT_EXHAUSTION_CAP:
        raise CapExceededError(f"q^n = {q ** n} exceeds the cap {DEFAULT_EXHAUSTION_CAP}")
    points = product(range(q), repeat=n)
    return (p for p in points if eval_gates(ckt, p) == 0)
