"""The range-avoidance pipeline and its two-way link to hitting sets.

An avoid instance is a total function f : [a] -> [b] with b >= 2a; a
solution is any point of [b] outside the range of f.  Solving it through
hitting sets runs five stages:

  normalize         turn f into a one-bit-stretch function
                    g : {0,1}^m -> {0,1}^(m+1), m = bitlen(a-1), with a
                    backmap from unattained outputs of g to unattained
                    points of f;
  amplify           iterate g into h : {0,1}^m -> {0,1}^(m+t), recycling
                    the first m output bits through g and shifting one
                    fresh tail bit per round;
  build class       one algebraic circuit per description x in {0,1}^m,

                        A_x(z) = prod_i sum_j (z_j - sum_k h(x;i,j,k) 2^(k-1))^2,

                    (one shared template, with h(x)'s bits as its params),
                    which vanishes exactly on the r points whose binary
                    coordinates are spelled by h(x), yet is positive at the
                    all-2q point;
  search            find a verified hitting set H for that class; the bit
                    encoding y of H (packed into one int, as h's rows are)
                    then cannot equal any h(x), because h(x) = y would
                    make A_x a non-vanishing member that H fails to hit;
  invert            walk y back through the amplification to a string
                    outside the range of g (two oracle queries), and
                    backmap it to a solution of the original instance.

The exhaustive default oracle makes every stage deterministic and every
guarantee checkable at desk scale; the final value is re-verified against a
brute-force range scan before it is returned.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .boolfunc import (
    BoolCircuit,
    BoolFunc,
    boolfunc_from_callable,
    eval_bool_circuit,
    int_to_bit_str,
)
from .circuit import _SPACE, Circuit, Gate, _ascii_int, circuit
from .config import DEFAULT_CLASS_CAP, DEFAULT_EXHAUSTION_CAP
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InversionFailedError,
    OracleError,
    PreconditionError,
    StageError,
)
from .hitting import DefinableClass, HittingSet, bitlen, class_cap_error, search_hitting_set


@dataclass(frozen=True)
class AvoidInstance:
    """A total f : [a] -> [b] with b >= 2a, as a dense 1-based table."""

    a: int
    b: int
    table: Tuple[int, ...]

    def __post_init__(self):
        if not (self.a >= 1 and self.b >= 2 * self.a):
            raise PreconditionError(f"need b >= 2a >= 2, got a={self.a}, b={self.b}")
        if len(self.table) != self.a:
            raise DimensionMismatchError(f"table has {len(self.table)} rows, want {self.a}")
        for x, y in enumerate(self.table, start=1):
            if not 1 <= y <= self.b:
                raise PreconditionError(f"f({x}) = {y} outside [1..{self.b}]")

    def range_set(self) -> set:
        return set(self.table)


def instance_from_tsv(text: str, b: Optional[int] = None) -> AvoidInstance:
    """Parse 'x<TAB>f(x)' lines (1-based decimals); b defaults to 2a."""
    rows: Dict[int, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_SPACE)
        if not line:
            continue
        parts = re.split(f"[{_SPACE}]+", line)
        if len(parts) != 2:
            raise PreconditionError(f"line {lineno}: want 'x<TAB>f(x)', got {line!r}")
        try:
            x, y = map(_ascii_int, parts)
        except ValueError:
            raise PreconditionError(
                f"line {lineno}: want decimal x and f(x), got {line!r}"
            ) from None
        if x in rows:
            raise PreconditionError(f"line {lineno}: duplicate row for x={x}")
        rows[x] = y
    a = len(rows)
    if set(rows) != set(range(1, a + 1)):
        raise PreconditionError("table must cover x = 1..a densely")
    return AvoidInstance(a, b if b is not None else 2 * a, tuple(rows[x] for x in range(1, a + 1)))


def instance_from_bool_circuit(
    c: BoolCircuit, a: int, b: int, cap: int = DEFAULT_EXHAUSTION_CAP
) -> AvoidInstance:
    """Tabulate a circuit-presented f; the domain [a] must fit the cap."""
    if a > cap:
        raise CapExceededError(f"a={a} exceeds the cap {cap}")
    m = bitlen(a - 1)
    if c.n_vars != m:
        raise DimensionMismatchError(f"circuit has {c.n_vars} inputs, want {m}")
    return AvoidInstance(a, b, tuple(eval_bool_circuit(c, x) + 1 for x in range(a)))


def solve_avoid_brute(inst: AvoidInstance, cap: int = DEFAULT_EXHAUSTION_CAP) -> int:
    """Smallest point of [b] outside the range of f (test oracle)."""
    if inst.a > cap:
        raise CapExceededError(f"a={inst.a} exceeds the cap {cap}")
    hit = inst.range_set()
    for y in range(1, inst.b + 1):
        if y not in hit:
            return y
    raise AssertionError("pigeonhole violated: f covers all of [b]")


def solution_set(inst: AvoidInstance) -> set:
    return set(range(1, inst.b + 1)) - inst.range_set()


# -- normalization ---------------------------------------------------------

def normalize(inst: AvoidInstance) -> Tuple[BoolFunc, Callable[[int], int]]:
    """Reduce f : [a] -> [b] to a stretch-by-one-bit function plus a backmap.

    g(x) writes (f(num(x)) - 1) mod 2a in m+1 binary digits, where
    num(x) = (x mod a) + 1 is the canonical surjection {0,1}^m -> [a].  If some
    string outside the range of g has integer value below 2a, its wrap y is
    provably outside the range of f: any preimage x of y under f would put
    g(num_inv(x)) on exactly that string.

    Strings with value >= 2a ("junk", present exactly when a is not a power
    of two) are never representative of any wrap, so the mod-wrap argument
    says nothing about them.  The backmap sends them into the precomputed
    pool of f-unattained values of [2a] instead, which keeps the guarantee
    universal: every string outside range(g) backmaps outside range(f).
    The pool needs the range of f, which a table-presented instance gives
    for free.
    """
    a = inst.a
    m = bitlen(a - 1)
    a2 = 2 * a
    table = inst.table
    g = boolfunc_from_callable(lambda v: (table[v % a] - 1) % a2, m, m + 1)
    pool = sorted(set(range(1, a2 + 1)) - inst.range_set())

    def backmap(v: int) -> int:
        if not 0 <= v < 2 << m:
            raise DimensionMismatchError(f"backmap input {v!r} outside [0, 2^{m + 1})")
        if v < a2:
            return v + 1
        return pool[(v - a2) % len(pool)]

    return g, backmap


# -- amplification ---------------------------------------------------------

def amplify(g: BoolFunc, t: int) -> BoolFunc:
    """Iterate the one-bit stretch t times into an m -> m+t function.

    Round j feeds the first m bits of the previous value back through g and
    keeps the tail verbatim, so each round preserves the tail and prepends
    one fresh stretch bit:  h_j(x) = g(h_{j-1}(x)[first m]) : h_{j-1}(x)[rest].

    Row x of h is the int ``tail << m | head``.  With nxt(v) = g(v) mod 2^m
    and b(v) = g(v) >> m, tail(x) = b(x) 2^(t-1) | tail(nxt x) >> 1, so one
    node per cycle of nxt is seeded with its cycle's bits repeated to t
    bits, and the other nodes, cycles first and then in-trees root first,
    take their successors' tails: O(2^m) big-int steps.  The heads
    nxt^t(x) are small ints, found by doubling along t's binary digits.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1")
    if g.out_bits != g.in_bits + 1:
        raise DimensionMismatchError(f"g must stretch by one bit, has {g.in_bits}->{g.out_bits}")
    m = g.in_bits

    mask = (1 << m) - 1
    nxt = [row & mask for row in g.rows]
    fresh = [row >> m for row in g.rows]
    # Peel the in-trees: a node joins ``order`` once all its preimages have.
    indeg = [0] * (1 << m)
    for v in nxt:
        indeg[v] += 1
    order = [v for v in range(1 << m) if not indeg[v]]
    for v in order:
        indeg[nxt[v]] -= 1
        if not indeg[nxt[v]]:
            order.append(nxt[v])
    # What is left lies on cycles.  Cycle c_0 .. c_(L-1) gives c_0 the bits
    # b(c_0) .. b(c_(p-1)), p = min(L, t), repeated to t bits, oldest first.
    tail, fill = [0] * (1 << m), []
    for c in range(1 << m):
        if indeg[c]:
            cyc, v = [], c
            while indeg[v]:
                indeg[v] = 0
                cyc.append(v)
                v = nxt[v]
            p = min(len(cyc), t)
            span = p * -(-t // p)
            pattern = int("".join([str(fresh[v]) for v in cyc[:p]]), 2)
            tail[c] = pattern * ((1 << span) - 1) // ((1 << p) - 1) >> (span - t)
            fill += cyc[:0:-1]
    top = (0, 1 << (t - 1))
    for v in fill + order[::-1]:
        tail[v] = top[fresh[v]] | tail[nxt[v]] >> 1

    heads, head = nxt, range(1 << m)  # the table for 2^0 rounds; every row after 0
    for k in range(t.bit_length()):
        if k:
            heads = [heads[v] for v in heads]
        if t >> k & 1:
            head = [heads[v] for v in head]
    return BoolFunc(m, m + t, tuple([tl << m | hd for hd, tl in zip(head, tail)]))


# -- inversion -------------------------------------------------------------

class ExhaustiveOracle:
    """Sound witness oracle backed by exhaustive search over {0,1}^m.

    Answers the two query forms of the inversion procedure: the walk query
    (length-maximal chain of g-preimages along the tail bits of y, ties
    broken lexicographically on the bit strings, bit 0 first) and the plain
    preimage query.  NO answers are proven by exhaustion; YES answers carry
    witnesses that the caller re-verifies.  The most recent walk is kept on
    ``last_walk`` for audit traces.
    """

    def __init__(self):
        self.last_walk: Optional[Tuple[int, List[int], List[int]]] = None

    def preimage(self, g: BoolFunc, target: int) -> Optional[int]:
        return g.rows.index(target) if target in g.rows else None

    def longest_walk(self, g: BoolFunc, y: int, t: int) -> Tuple[int, List[int], List[int]]:
        """Maximal k <= t-1 with a chain y_0 .. y_k of stretch values.

        y_0 is the low m+1 bits of y; each step needs a g-preimage w of the
        current value and appends the next tail bit of y as the top bit:
        y_{j+1} = w | (bit m+j+1 of y) << m.  Returns (k, [y_0..y_k],
        [w_0..w_{k-1}]).  A node's preimages give distinct children, so
        each child has one parent, and only the endpoint needs the tie-break.
        """
        m = g.in_bits
        index: Dict[int, List[int]] = {}
        for v, row in enumerate(g.rows):
            index.setdefault(row, []).append(v)
        levels: List[Dict[int, Optional[Tuple[int, int]]]] = [{y & ((2 << m) - 1): None}]
        for j in range(t - 1):
            top = (y >> (m + j + 1) & 1) << m
            nxt = {w | top: (node, w) for node in levels[j] for w in index.get(node, ())}
            if not nxt:
                break
            levels.append(nxt)
        k = len(levels) - 1
        ys = [min(levels[k], key=lambda v: int_to_bit_str(v, m + 1))]
        ws: List[int] = []
        for j in range(k, 0, -1):
            parent, w = levels[j][ys[0]]
            ws.insert(0, w)
            ys.insert(0, parent)
        self.last_walk = (k, ys, ws)
        return k, ys, ws


def invert_amplified(
    g: BoolFunc,
    t: int,
    y: int,
    oracle: Optional[ExhaustiveOracle] = None,
) -> int:
    """Recover a string outside range(g) from a string outside range(h),
    h = amplify(g, t).

    Exactly two oracle queries: one for the length-maximal preimage walk
    along y's tail bits, one to test whether the walk's endpoint is itself
    in range(g).  With the exhaustive oracle the procedure never fails when
    y really avoids the amplified range; a failure therefore reports a
    violated precondition.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1")
    oracle = oracle or ExhaustiveOracle()
    m = g.in_bits
    if g.out_bits != m + 1:
        raise DimensionMismatchError("g must stretch by one bit")
    if not 0 <= y < 1 << (m + t):
        raise DimensionMismatchError(f"y {y!r} outside [0, 2^{m + t})")
    k, ys, ws = oracle.longest_walk(g, y, t)
    # Re-verify the YES witness before trusting it; g(w) refuses a w
    # outside its domain, so every y_j is an (m+1)-bit string.
    if len(ys) != k + 1 or len(ws) != k or ys[0] != y & ((2 << m) - 1):
        raise OracleError("walk witness has the wrong shape")
    for j in range(k):
        if g(ws[j]) != ys[j] or ys[j + 1] != ws[j] | (y >> (m + j + 1) & 1) << m:
            raise OracleError(f"walk witness fails re-verification at step {j}")
    w = oracle.preimage(g, ys[k])
    if w is None:
        return ys[k]
    if g(w) != ys[k]:
        raise OracleError("preimage witness fails re-verification")
    raise InversionFailedError(
        f"walk endpoint at depth {k} is still in range(g); y was not outside range(h)"
    )


# -- parameter schedules ----------------------------------------------------

@dataclass(frozen=True)
class AvoidSchedule:
    """Slice parameters for the compression class, plus stretch length."""

    m: int
    n: int
    d: int
    q: int
    r: int
    w: int       # bit width per coordinate, = bitlen(q)
    t_prime: int  # amplified output length, >= r*n*w

    def to_json(self) -> dict:
        # One schedule, meeting every inequality; the golden hashes cover these keys.
        return {
            "mode": "desk", "m": self.m, "n": self.n, "d": self.d,
            "q": self.q, "r": self.r, "w": self.w, "t_prime": self.t_prime,
            "violations": [],
        }


def _schedule_violations(s: AvoidSchedule) -> Tuple[str, ...]:
    out = []
    if s.t_prime < s.r * s.n * bitlen(s.q):
        out.append(f"t' >= r*n*|q| fails: {s.t_prime} < {s.r * s.n * bitlen(s.q)}")
    if s.d < 2 * s.r * bitlen(s.q):
        out.append(f"d >= 2r|q| fails: {s.d} < {2 * s.r * bitlen(s.q)}")
    if s.q < 2 * s.d * s.n:
        out.append(f"q >= 2dn fails: {s.q} < {2 * s.d * s.n}")
    if s.r <= s.m + s.n * bitlen(s.q):
        out.append(f"r > m + n|q| fails: {s.r} <= {s.m + s.n * bitlen(s.q)}")
    return tuple(out)


@functools.lru_cache(maxsize=8)
def desk_schedule(m: int) -> AvoidSchedule:
    """Smallest parameter tuple satisfying every proof inequality at n = 2.

    Solve the constraint system directly instead of the asymptotic choice:
    with r = m + 2w + 1 and d = 2rw, the binding constraint is
    q = 2^w - 1 >= 2dn = 8rw, so take the least such w.  Then |q| = w
    exactly and all four inequalities hold with slack at m as small as 0.
    """
    n = 2
    w = 1
    while True:
        r = m + n * w + 1
        d = 2 * r * w
        q = (1 << w) - 1
        if q >= 2 * d * n:
            break
        w += 1
    sched = AvoidSchedule(m, n, d, q, r, w, t_prime=r * n * w)
    violations = _schedule_violations(sched)
    assert not violations, violations
    return sched


# -- the compression class ---------------------------------------------------

@functools.lru_cache(maxsize=8)
def _member_gates(sched: AvoidSchedule) -> Circuit:
    """The class template prod_i sum_j (z_j - sum_k p_e * 2^(k-1))^2.

    Params are numbered as built, in (i, j, k) loop order, so param p_e,
    e = ((i-1)n + (j-1))w + k, takes bit e of h(x): member x is
    ``(template, R)``, with R the int of h(x)'s first r*n*w bits.
    Subtraction is Add(z_j, Mul(-1, inner)); squaring reuses one gate for
    both factors; the powers of two form one shared Const(2) chain.

    The template depends on the schedule alone, so it is cached: solves
    with the same schedule share one immutable circuit, together with the
    degree report and slot program kept on it.
    """
    n, r, w = sched.n, sched.r, sched.w
    gates: List[Gate] = [Gate.var(j) for j in range(1, n + 1)]

    def push(g: Gate) -> int:
        gates.append(g)
        return len(gates) - 1

    one = push(Gate.const(1))
    two = push(Gate.const(2))
    pow_idx = [one]  # pow_idx[k-1] is 2^(k-1)
    for _ in range(2, w + 1):
        pow_idx.append(push(Gate.mul(pow_idx[-1], two)))
    neg1 = push(Gate.const(-1))
    params = iter(range(1, r * n * w + 1))
    prod = -1
    for i in range(1, r + 1):
        jsum = -1
        for j in range(1, n + 1):
            inner = -1
            for k in range(1, w + 1):
                bgate = push(Gate.param(next(params)))
                term = push(Gate.mul(bgate, pow_idx[k - 1]))
                inner = term if inner < 0 else push(Gate.add(inner, term))
            neg = push(Gate.mul(neg1, inner))
            diff = push(Gate.add(j - 1, neg))
            sq = push(Gate.mul(diff, diff))
            jsum = sq if jsum < 0 else push(Gate.add(jsum, sq))
        prod = jsum if i == 1 else push(Gate.mul(prod, jsum))
    return circuit(gates)


def build_avoid_class(h: BoolFunc, sched: AvoidSchedule) -> DefinableClass:
    """The definable class whose member at description x vanishes exactly
    on the r points spelled by the bits of h(x).  Its params are packed:
    member x's are h's row at x, masked to the template's r*n*w params."""
    violations = _schedule_violations(sched)
    if violations:
        raise PreconditionError("schedule violates: " + "; ".join(violations))
    if h.in_bits != sched.m:
        raise DimensionMismatchError(f"h has {h.in_bits} input bits, want {sched.m}")
    width = sched.r * sched.n * sched.w
    if h.out_bits < width:
        raise PreconditionError(f"t' >= r*n*|q| fails: {h.out_bits} < {width}")

    rows, mask = h.rows, (1 << width) - 1

    def params_of(x: int) -> int:
        return rows[x] & mask

    cls = DefinableClass(
        decoder=None, template=_member_gates(sched), params_of=params_of,
        n=sched.n, d=sched.d, s=0, m=sched.m,
    )
    assert len(cls.template.gates) <= cls.s  # representation size dominates gate count
    return cls


def encode_hitting_set_bits(h_set: HittingSet, sched: AvoidSchedule, width: int) -> int:
    """Spell H into a ``width``-bit string y, packed into one int as h's
    rows are: bit e(i,j,k) - 1 of y is bit k of the j-th coordinate of the
    i-th point, and every other bit, up to ``width``, is zero.

    In (i, j, k) order that is each coordinate's low w bits, least
    significant first, so each coordinate goes in with one shift and or.
    """
    if h_set.r != sched.r or h_set.n != sched.n or h_set.q != sched.q:
        raise DimensionMismatchError("hitting set does not match the schedule")
    w = sched.w
    if width < sched.r * sched.n * w:
        raise DimensionMismatchError(f"width {width} < r*n*w = {sched.r * sched.n * w}")
    y, shift, mask = 0, 0, (1 << w) - 1
    for point in h_set.points:
        for coord in point:
            y |= (coord & mask) << shift
            shift += w
    return y


# -- the full reduction ------------------------------------------------------

@dataclass(frozen=True)
class AvoidResult:
    value: int
    trace: dict


class _stage:
    """Re-raise an Exception in the block as a StageError naming the stage;
    any other BaseException (an interrupt, an exit) passes through."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        pass

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, Exception):
            raise StageError(self.name, exc) from exc


def avoid_via_hitting(inst: AvoidInstance, hs_solver=None, seed: int = 0) -> AvoidResult:
    """Solve the instance through the hitting-set reduction, with a full
    audit trace; every stage error carries its stage name."""
    # "blob" is always empty; it stays because the golden trace hashes cover it.
    trace: dict = {"a": inst.a, "b": inst.b, "blob": ""}

    if hs_solver is None:
        # The search refuses the avoid class, which has no membership
        # sampler, once its 2^m members pass the cap, and m is normalize's;
        # refuse here, before g, h and the class are built.
        with _stage("class-cap"):
            m = bitlen(inst.a - 1)
            if 1 << m > DEFAULT_CLASS_CAP:
                raise class_cap_error(m, DEFAULT_CLASS_CAP)

    with _stage("normalize"):
        g, backmap = normalize(inst)
    m = g.in_bits
    trace["m"] = m
    # Rows are < 2^(m+1) (BoolFunc checks), so none needs int_to_bit_str's mask.
    trace["g_digest"] = hashlib.sha256(
        "".join([format(row, f"0{m + 1}b") for row in reversed(g.rows)])[::-1].encode()
    ).hexdigest()

    with _stage("schedule"):
        sched = desk_schedule(m)
    trace["schedule"] = sched.to_json()
    trace["class_size"] = 1 << m

    t = sched.t_prime - m  # t' = 2w(m + 2w + 1) > m, so t >= 1
    with _stage("amplify"):
        h = amplify(g, t)

    with _stage("build-class"):
        cls = build_avoid_class(h, sched)
    trace["member_size_bits"] = cls.s

    with _stage("hitting-set"):
        if hs_solver is None:
            h_set = search_hitting_set(cls, sched.q, sched.r, seed=seed)
        else:
            h_set = hs_solver(cls)
    trace["hitting_set"] = [list(p) for p in h_set.points]

    with _stage("encode"):
        y = encode_hitting_set_bits(h_set, sched, h.out_bits)
    trace["y"] = int_to_bit_str(y, h.out_bits)

    with _stage("compression-check"):
        if y in h.rows:
            raise AssertionError(
                "hitting-set encoding landed in range(h); "
                "the compression argument forbids this"
            )

    oracle = ExhaustiveOracle()
    with _stage("invert"):
        y0 = invert_amplified(g, t, y, oracle)
    trace["inversion_output"] = int_to_bit_str(y0, m + 1)
    k, ys, _ = oracle.last_walk
    trace["inversion_walk"] = {"k": k, "chain": [int_to_bit_str(v, m + 1) for v in ys]}

    with _stage("inversion-check"):
        if y0 in g.rows:
            raise AssertionError("inversion output is in range(g)")

    with _stage("backmap"):
        value = backmap(y0)
    trace["value"] = value

    with _stage("final-check"):
        if not 1 <= value <= 2 * inst.a:
            raise AssertionError(f"value {value} outside [2a]")
        if value in inst.range_set():
            raise AssertionError(f"value {value} is in range(f)")
    return AvoidResult(value=value, trace=trace)
