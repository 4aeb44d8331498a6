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
                    encoding y of H then cannot equal any h(x), because
                    h(x) = y would make A_x a non-vanishing member that H
                    fails to hit;
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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from .boolfunc import (
    Bits,
    BoolCircuit,
    BoolFunc,
    bits_to_int,
    bits_to_str,
    boolfunc_from_callable,
    eval_bool_circuit,
    int_to_bits,
    str_to_bits,
)
from .circuit import Circuit, Gate, circuit
from .config import DEFAULT_EXHAUSTION_CAP, DEFAULT_SEARCH_BUDGET, DEFAULT_WITNESS_BUDGET
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InversionFailedError,
    OracleError,
    PreconditionError,
    StageError,
)
from .hitting import DefinableClass, HittingSet, bitlen, search_hitting_set


@dataclass(frozen=True)
class AvoidInstance:
    """A total f : [a] -> [b] with b >= 2a, as a dense 1-based table."""

    a: int
    b: int
    table: Tuple[int, ...]
    blob: str = ""  # opaque parameter tag, carried into traces

    def __post_init__(self):
        if not (self.a >= 1 and self.b >= 2 * self.a):
            raise PreconditionError(f"need b >= 2a >= 2, got a={self.a}, b={self.b}")
        if len(self.table) != self.a:
            raise DimensionMismatchError(f"table has {len(self.table)} rows, want {self.a}")
        for x, y in enumerate(self.table, start=1):
            if not 1 <= y <= self.b:
                raise PreconditionError(f"f({x}) = {y} outside [1..{self.b}]")

    def apply(self, x: int) -> int:
        if not 1 <= x <= self.a:
            raise PreconditionError(f"argument {x} outside [1..{self.a}]")
        return self.table[x - 1]

    def range_set(self) -> set:
        return set(self.table)


def instance_from_tsv(text: str, b: Optional[int] = None) -> AvoidInstance:
    """Parse 'x<TAB>f(x)' lines (1-based decimals); b defaults to 2a."""
    rows: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PreconditionError(f"line {lineno}: want 'x<TAB>f(x)', got {line!r}")
        x, y = int(parts[0]), int(parts[1])
        if x in rows:
            raise PreconditionError(f"line {lineno}: duplicate row for x={x}")
        rows[x] = y
    a = len(rows)
    if set(rows) != set(range(1, a + 1)):
        raise PreconditionError("table must cover x = 1..a densely")
    return AvoidInstance(a, b if b is not None else 2 * a, tuple(rows[x] for x in range(1, a + 1)))


def instance_to_tsv(inst: AvoidInstance) -> str:
    return "\n".join(f"{x}\t{y}" for x, y in enumerate(inst.table, start=1)) + "\n"


def instance_from_bool_circuit(
    c: BoolCircuit, a: int, b: int, cap: int = DEFAULT_EXHAUSTION_CAP
) -> AvoidInstance:
    """Tabulate a circuit-presented f; the domain [a] must fit the cap."""
    if a > cap:
        raise CapExceededError(f"a={a} exceeds the cap {cap}")
    m = bitlen(a - 1)
    if c.n_vars != m:
        raise DimensionMismatchError(f"circuit has {c.n_vars} inputs, want {m}")
    table = []
    for x in range(1, a + 1):
        out = eval_bool_circuit(c, int_to_bits(x - 1, m))
        table.append(bits_to_int(out) + 1)
    return AvoidInstance(a, b, tuple(table))


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

def num_onto(a: int, bits: Bits) -> int:
    """The canonical surjection {0,1}^m -> [a]: value mod a, shifted to 1-based."""
    return (bits_to_int(bits) % a) + 1


def normalize(inst: AvoidInstance) -> Tuple[BoolFunc, Callable[[Bits], int]]:
    """Reduce f : [a] -> [b] to a stretch-by-one-bit function plus a backmap.

    g(x) writes (f(num(x)) - 1) mod 2a in m+1 binary digits.  If some
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

    def g_fn(bits: Bits) -> Bits:
        return int_to_bits((inst.apply(num_onto(a, bits)) - 1) % a2, m + 1)

    g = boolfunc_from_callable(g_fn, m, m + 1)
    pool = sorted(set(range(1, a2 + 1)) - inst.range_set())

    def backmap(bits: Bits) -> int:
        if len(bits) != m + 1:
            raise DimensionMismatchError(f"backmap input width {len(bits)} != {m + 1}")
        v = bits_to_int(bits)
        if v < a2:
            return v + 1
        return pool[(v - a2) % len(pool)]

    return g, backmap


# -- amplification ---------------------------------------------------------

# Maps the characters '0' and '1' to the bit values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def amplify(g: BoolFunc, t: int) -> BoolFunc:
    """Iterate the one-bit stretch t times into an m -> m+t function.

    Round j feeds the first m bits of the previous value back through g and
    keeps the tail verbatim, so each round preserves the tail and prepends
    one fresh stretch bit:  h_j(x) = g(h_{j-1}(x)[first m]) : h_{j-1}(x)[rest].

    By doubling: jump table k maps a head's value to the head after 2^k
    rounds and those rounds' fresh bits, packed newest first into one int
    (LSB first, as ``bits_to_int``).  A row combines the tables along t's
    binary digits, so it costs O(log t) steps instead of t.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1")
    if g.out_bits != g.in_bits + 1:
        raise DimensionMismatchError(f"g must stretch by one bit, has {g.in_bits}->{g.out_bits}")
    m = g.in_bits

    heads = [bits_to_int(out[:m]) for out in g.table]
    fresh = [out[m] for out in g.table]
    jumps = [(heads, fresh)]  # jumps[k]: 2^k rounds
    for k in range(1, t.bit_length()):
        span = 1 << (k - 1)
        fresh = [fresh[nxt] | fresh[h] << span for h, nxt in enumerate(heads)]
        heads = [heads[nxt] for nxt in heads]
        jumps.append((heads, fresh))
    width = f"0{m + t}b"

    def h_fn(x: Bits) -> Bits:
        head, tail = bits_to_int(x), 0
        for k, (heads, fresh) in enumerate(jumps):
            if t >> k & 1:
                tail = fresh[head] | tail << (1 << k)
                head = heads[head]
        # All m + t bits, LSB first, from the reversed binary digits.
        return tuple(format(tail << m | head, width)[::-1].encode().translate(_BIT_VALUES))

    return boolfunc_from_callable(h_fn, m, m + t)


# -- inversion -------------------------------------------------------------

class ExhaustiveOracle:
    """Sound witness oracle backed by exhaustive search over {0,1}^m.

    Answers the two query forms of the inversion procedure: the walk query
    (length-maximal chain of g-preimages along the tail bits of y, ties
    broken lexicographically) and the plain preimage query.  NO answers are
    proven by exhaustion; YES answers carry witnesses that the caller
    re-verifies.  The most recent walk is kept on ``last_walk`` for audit
    traces.
    """

    def __init__(self):
        self.last_walk: Optional[Tuple[int, List[Bits], List[Bits]]] = None

    def preimage(self, g: BoolFunc, target: Bits) -> Optional[Bits]:
        if target in g.table:
            return int_to_bits(g.table.index(target), g.in_bits)
        return None

    def longest_walk(
        self, g: BoolFunc, y: Bits, t: int
    ) -> Tuple[int, List[Bits], List[Bits]]:
        """Maximal k <= t-1 with a chain y_0 .. y_k of stretch values.

        y_0 is the first m+1 bits of y; each step needs a g-preimage w of
        the current value and appends the next tail bit of y:
        y_{j+1} = w : y[m+j+2].  Returns (k, [y_0..y_k], [w_0..w_{k-1}]).
        """
        m = g.in_bits
        index: Dict[Bits, List[Bits]] = {}
        for v, out in enumerate(g.table):
            index.setdefault(out, []).append(int_to_bits(v, m))
        y0 = tuple(y[: m + 1])
        levels: List[Dict[Bits, Optional[Tuple[Bits, Bits]]]] = [{y0: None}]
        for j in range(t - 1):
            bit = y[m + j + 1]
            nxt: Dict[Bits, Optional[Tuple[Bits, Bits]]] = {}
            for node in sorted(levels[j]):
                for w in index.get(node, ()):
                    child = w + (bit,)
                    if child not in nxt:
                        nxt[child] = (node, w)
            if not nxt:
                break
            levels.append(nxt)
        k = len(levels) - 1
        node = min(levels[k])
        ys = [node]
        ws: List[Bits] = []
        for j in range(k, 0, -1):
            parent, w = levels[j][ys[0]]
            ws.insert(0, w)
            ys.insert(0, parent)
        self.last_walk = (k, ys, ws)
        return k, ys, ws


def invert_amplified(
    g: BoolFunc,
    t: int,
    y: Bits,
    oracle: Optional[ExhaustiveOracle] = None,
) -> Bits:
    """Recover a string outside range(g) from a string outside range(h).

    Exactly two oracle queries: one for the length-maximal preimage walk
    along y's tail bits, one to test whether the walk's endpoint is itself
    in range(g).  With the exhaustive oracle the procedure never fails when
    y really avoids the amplified range; a failure therefore reports a
    violated precondition.
    """
    oracle = oracle or ExhaustiveOracle()
    m = g.in_bits
    if g.out_bits != m + 1:
        raise DimensionMismatchError("g must stretch by one bit")
    if len(y) != m + t:
        raise DimensionMismatchError(f"y has width {len(y)}, want {m + t}")
    k, ys, ws = oracle.longest_walk(g, y, t)
    # Re-verify the YES witness before trusting it.
    if len(ys) != k + 1 or len(ws) != k or tuple(ys[0]) != tuple(y[: m + 1]):
        raise OracleError("walk witness has the wrong shape")
    for j in range(k):
        if g(ws[j]) != tuple(ys[j]) or tuple(ys[j + 1]) != tuple(ws[j]) + (y[m + j + 1],):
            raise OracleError(f"walk witness fails re-verification at step {j}")
    w = oracle.preimage(g, tuple(ys[k]))
    if w is None:
        return tuple(ys[k])
    if g(w) != tuple(ys[k]):
        raise OracleError("preimage witness fails re-verification")
    raise InversionFailedError(
        f"walk endpoint at depth {k} is still in range(g); y was not outside range(h)"
    )


# -- triple index ----------------------------------------------------------

def triple_encode(i: int, j: int, k: int, r: int, n: int, w: int) -> int:
    """Bijection [r] x [n] x [w] -> [r*n*w]: ((i-1)n + (j-1))w + k."""
    if not (1 <= i <= r and 1 <= j <= n and 1 <= k <= w):
        raise PreconditionError(f"triple ({i},{j},{k}) outside [{r}]x[{n}]x[{w}]")
    return ((i - 1) * n + (j - 1)) * w + (k - 1) + 1


def triple_decode(idx: int, r: int, n: int, w: int) -> Tuple[int, int, int]:
    if not 1 <= idx <= r * n * w:
        raise PreconditionError(f"index {idx} outside [1..{r * n * w}]")
    v, k = divmod(idx - 1, w)
    i, j = divmod(v, n)
    return i + 1, j + 1, k + 1


# -- parameter schedules ----------------------------------------------------

@dataclass(frozen=True)
class AvoidSchedule:
    """Slice parameters for the compression class, plus stretch length."""

    mode: str
    m: int
    n: int
    d: int
    q: int
    r: int
    w: int       # bit width per coordinate, = bitlen(q)
    t_prime: int  # amplified output length, >= r*n*w
    violations: Tuple[str, ...] = ()

    def check(self) -> None:
        if self.violations:
            raise PreconditionError(
                "schedule violates: " + "; ".join(self.violations)
            )

    def to_json(self) -> dict:
        return {
            "mode": self.mode, "m": self.m, "n": self.n, "d": self.d,
            "q": self.q, "r": self.r, "w": self.w, "t_prime": self.t_prime,
            "violations": list(self.violations),
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
    sched = AvoidSchedule("desk", m, n, d, q, r, w, t_prime=r * n * w)
    violations = _schedule_violations(sched)
    assert not violations, violations
    return sched


def paper_schedule(m: int) -> AvoidSchedule:
    """The asymptotic choice n=m, d=m^2, r=4m|m|, q=2m^3, t'=m^3.

    Only valid for large m; at small m the violated inequalities are
    reported in the schedule rather than hidden.
    """
    if m < 1:
        raise PreconditionError("paper schedule needs m >= 1")
    n, d, q, r = m, m * m, 2 * m**3, 4 * m * bitlen(m)
    sched = AvoidSchedule("paper", m, n, d, q, r, bitlen(q), t_prime=m**3)
    return replace(sched, violations=_schedule_violations(sched))


# -- the compression class ---------------------------------------------------

@functools.lru_cache(maxsize=8)
def _member_gates(sched: AvoidSchedule) -> Circuit:
    """The class template prod_i sum_j (z_j - sum_k p_e * 2^(k-1))^2.

    Param p_e, e = triple_encode(i, j, k), takes bit e of h(x): member x is
    ``(template, h(x)[:r*n*w])``.  Subtraction is Add(z_j, Mul(-1, inner));
    squaring reuses one gate for both factors; the powers of two form one
    shared Const(2) chain.

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
    prod = -1
    for i in range(1, r + 1):
        jsum = -1
        for j in range(1, n + 1):
            inner = -1
            for k in range(1, w + 1):
                bgate = push(Gate.param(triple_encode(i, j, k, r, n, w)))
                term = push(Gate.mul(bgate, pow_idx[k - 1]))
                inner = term if inner < 0 else push(Gate.add(inner, term))
            neg = push(Gate.mul(neg1, inner))
            diff = push(Gate.add(j - 1, neg))
            sq = push(Gate.mul(diff, diff))
            jsum = sq if jsum < 0 else push(Gate.add(jsum, sq))
        prod = jsum if i == 1 else push(Gate.mul(prod, jsum))
    return circuit(gates)


def build_avoid_class(h: BoolFunc, sched: AvoidSchedule, e: object = None) -> DefinableClass:
    """The definable class whose member at description x vanishes exactly
    on the r points spelled by the bits of h(x)."""
    sched.check()
    if h.in_bits != sched.m:
        raise DimensionMismatchError(f"h has {h.in_bits} input bits, want {sched.m}")
    width = sched.r * sched.n * sched.w
    if h.out_bits < width:
        raise PreconditionError(f"t' >= r*n*|q| fails: {h.out_bits} < {width}")

    def params_of(x: str) -> Bits:
        return h(str_to_bits(x))[:width]

    cls = DefinableClass(
        decoder=None, template=_member_gates(sched), params_of=params_of,
        n=sched.n, d=sched.d, s=0, m=sched.m, e=e,
    )
    assert len(cls.template.gates) <= cls.s  # representation size dominates gate count
    return cls


def encode_hitting_set_bits(h_set: HittingSet, sched: AvoidSchedule, width: int) -> Bits:
    """Spell H into a bit string: position e(i,j,k) carries bit k of the
    j-th coordinate of the i-th point; every other position is zero.

    In (i, j, k) order that is each coordinate in w bits, least
    significant first, followed by zeros up to ``width``.
    """
    if h_set.r != sched.r or h_set.n != sched.n or h_set.q != sched.q:
        raise DimensionMismatchError("hitting set does not match the schedule")
    if width < sched.r * sched.n * sched.w:
        raise DimensionMismatchError(f"width {width} < r*n*w = {sched.r * sched.n * sched.w}")
    bits = [(coord >> k) & 1 for point in h_set.points for coord in point for k in range(sched.w)]
    return tuple(bits) + (0,) * (width - len(bits))


# -- the full reduction ------------------------------------------------------

@dataclass(frozen=True)
class AvoidResult:
    value: int
    trace: dict


@contextmanager
def _stage(name: str):
    """Re-raise any failure in the block as a StageError naming the stage."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - provenance wrapper
        raise StageError(name, exc) from exc


def avoid_via_hitting(
    inst: AvoidInstance,
    hs_solver=None,
    seed: int = 0,
    schedule: str = "auto",
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
) -> AvoidResult:
    """Solve the instance through the hitting-set reduction, with a full
    audit trace; every stage error carries its stage name."""
    trace: dict = {"a": inst.a, "b": inst.b, "blob": inst.blob}

    with _stage("normalize"):
        g, backmap = normalize(inst)
    m = g.in_bits
    trace["m"] = m
    trace["g_digest"] = hashlib.sha256(
        "".join(bits_to_str(row) for row in g.table).encode()
    ).hexdigest()

    with _stage("schedule"):
        if schedule in ("auto", "desk"):
            sched = desk_schedule(m)
        elif schedule == "paper":
            sched = paper_schedule(m)
            sched.check()  # reports the violated inequalities at small m
        else:
            raise PreconditionError(f"unknown schedule {schedule!r}")
    trace["schedule"] = sched.to_json()
    trace["class_size"] = 1 << m

    t = sched.t_prime - m
    with _stage("amplify"):
        if t < 1:
            raise PreconditionError("t' <= m leaves nothing to stretch")
        h = amplify(g, t)

    with _stage("build-class"):
        cls = build_avoid_class(h, sched, e=inst.blob)
    trace["member_size_bits"] = cls.s

    with _stage("hitting-set"):
        if hs_solver is None:
            h_set = search_hitting_set(
                cls, sched.q, sched.r, seed=seed, budget=search_budget,
                witness_budget=witness_budget,
            )
        else:
            h_set = hs_solver(cls)
    trace["hitting_set"] = [list(p) for p in h_set.points]

    with _stage("encode"):
        y = encode_hitting_set_bits(h_set, sched, h.out_bits)
    trace["y"] = bits_to_str(y)

    with _stage("compression-check"):
        if y in h.table:
            raise AssertionError(
                "hitting-set encoding landed in range(h); "
                "the compression argument forbids this"
            )

    oracle = ExhaustiveOracle()
    with _stage("invert"):
        y0 = invert_amplified(g, t, y, oracle)
    trace["inversion_output"] = bits_to_str(y0)
    k, ys, _ = oracle.last_walk
    trace["inversion_walk"] = {"k": k, "chain": [bits_to_str(v) for v in ys]}

    with _stage("inversion-check"):
        if y0 in g.table:
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
