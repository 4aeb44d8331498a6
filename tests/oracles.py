"""Independent test oracles.

Everything here re-derives results from first principles with different
algorithms than the library uses (recursion instead of gate-order loops,
explicit monomial dictionaries instead of evaluation), so agreement is
meaningful evidence rather than an identity check.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import product
from typing import Collection, Dict, List, Optional, Tuple

from szpit.avoid import AvoidSchedule
from szpit.boolfunc import BoolFunc, int_to_bit_str
from szpit.circuit import ADD, CONST, PARAM, VAR, Circuit
from szpit.codec import SZContext, all_codes, decode_code
from szpit.config import DEFAULT_CLASS_CAP, DEFAULT_EXHAUSTION_CAP, DEFAULT_WITNESS_BUDGET
from szpit.errors import CapExceededError, DimensionMismatchError, PreconditionError, ZeroOnCubeError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass, HittingSet, HSVerdict, class_cap_error, find_small_witness
from szpit.rng import Rng

# A bit string spelled out per bit: entry j is bit j of the packed int.
Bits = Tuple[int, ...]


def int_to_bits(v: int, width: int) -> Bits:
    """The low ``width`` bits of v, bit 0 first (two's complement for a
    negative v, and ``()`` at a width of 0 or less)."""
    return tuple(map(int, int_to_bit_str(v, width)))


def bits_to_int(bits: Bits) -> int:
    return sum(b << j for j, b in enumerate(bits))


def call_per_bit(f: BoolFunc, x: Bits) -> Bits:
    """f at the bit string x, with its output spelled out per bit."""
    if len(x) != f.in_bits:
        raise DimensionMismatchError(f"input width {len(x)} != {f.in_bits}")
    return int_to_bits(f(bits_to_int(x)), f.out_bits)


def naive_eval(c: Circuit, vars: Tuple[int, ...], params: Tuple[int, ...] = ()) -> int:
    """Recursive evaluation from the output gate with memoization."""

    @lru_cache(maxsize=None)
    def go(i: int) -> int:
        g = c.gates[i]
        if g.op == VAR:
            return vars[g.name - 1]
        if g.op == PARAM:
            return params[g.name - 1]
        if g.op == CONST:
            return g.value
        if g.op == ADD:
            return go(g.lhs) + go(g.rhs)
        return go(g.lhs) * go(g.rhs)

    return go(len(c.gates) - 1)


def degree_oracle(c: Circuit) -> Tuple[int, Dict[str, int]]:
    """Recursive re-implementation of the syntactic degree rules.

    Returns (total degree, individual degrees of the output gate), with
    constant gates keyed by gate id like the library does.
    """
    inputs = []
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            inputs.append(f"x{g.name}")
        elif g.op == PARAM:
            inputs.append(f"p{g.name}")
        elif g.op == CONST:
            inputs.append(f"g{i}")

    @lru_cache(maxsize=None)
    def total(i: int) -> int:
        g = c.gates[i]
        if g.op in (VAR, PARAM, CONST):
            return 1
        if g.op == ADD:
            return max(total(g.lhs), total(g.rhs))
        return total(g.lhs) + total(g.rhs)

    def individual(i: int, u: str) -> int:
        g = c.gates[i]
        if g.op == VAR:
            return 1 if u == f"x{g.name}" else 0
        if g.op == PARAM:
            return 1 if u == f"p{g.name}" else 0
        if g.op == CONST:
            return 1 if u == f"g{i}" else 0
        if g.op == ADD:
            return max(individual(g.lhs, u), individual(g.rhs, u))
        return individual(g.lhs, u) + individual(g.rhs, u)

    out = len(c.gates) - 1
    return total(out), {u: individual(out, u) for u in set(inputs)}


def value_numbered_steps(c: Circuit, stage_a: Collection[int]) -> int:
    """How many distinct values the binary gates outside ``stage_a`` (gate
    indices whose values are affine in the params) compute, by structural
    hashing of canonical keys.  A var is keyed by its name; a const, a
    param or a stage-A gate by its affine form, found by recursion as
    ``(constant, ((param name, coefficient), ...))`` with names ascending
    and zero coefficients kept, as the slot program's runs keep them; any
    other gate by its op and the sorted keys of its operands.  Keys are
    interned to ints as they are made, so a key's size stays constant
    however deep the gate."""

    @lru_cache(maxsize=None)
    def form(k: int):
        g = c.gates[k]
        if g.op == CONST:
            return g.value, {}
        if g.op == PARAM:
            return 0, {g.name: 1}
        (a, fa), (b, fb) = form(g.lhs), form(g.rhs)
        if g.op == ADD:
            return a + b, {p: fa.get(p, 0) + fb.get(p, 0) for p in {*fa, *fb}}
        assert not (fa and fb), f"gate {k} multiplies two params"
        return a * b, {p: v * (b if fa else a) for p, v in {**fa, **fb}.items()}

    ids: Dict[tuple, int] = {}
    key = []
    steps = set()
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            k = ("var", g.name)
        elif i in stage_a or g.op in (CONST, PARAM):
            const, coeffs = form(i)
            k = ("form", const, tuple(sorted(coeffs.items())))
        else:
            k = (g.op, *sorted((key[g.lhs], key[g.rhs])))
            steps.add(k)
        key.append(ids.setdefault(k, len(ids)))
    return len(steps)


Monomials = Dict[Tuple[int, ...], int]


def sparse_expand(c: Circuit) -> Monomials:
    """The polynomial computed by c as {exponent vector: coefficient}.

    Exponential in the worst case; used only on circuits with few gates.
    The circuit must be parameter-free; plug_params supplies values.
    """
    if c.n_params:
        raise ValueError("sparse_expand needs a parameter-free circuit")
    n = c.n_vars
    zero_exp = tuple([0] * n)

    def mono(value: int) -> Monomials:
        return {zero_exp: value} if value else {}

    @lru_cache(maxsize=None)
    def go(i: int):
        g = c.gates[i]
        if g.op == VAR:
            e = [0] * n
            e[g.name - 1] = 1
            return ((tuple(e), 1),)
        if g.op == CONST:
            return tuple(mono(g.value).items())
        left, right = dict(go(g.lhs)), dict(go(g.rhs))
        out: Monomials = {}
        if g.op == ADD:
            for d in (left, right):
                for e, v in d.items():
                    out[e] = out.get(e, 0) + v
        else:
            for e1, v1 in left.items():
                for e2, v2 in right.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + v1 * v2
        return tuple((e, v) for e, v in out.items() if v != 0)

    return dict(go(len(c.gates) - 1))


def expansion_coeffs(c: Circuit, d: int) -> Tuple[int, ...]:
    """The coefficients, lowest degree first and d + 1 of them, of the
    polynomial a circuit in at most one variable computes, read off its
    monomial expansion; raises ValueError when its degree passes d."""
    coeffs = [0] * (d + 1)
    for e, v in sparse_expand(c).items():
        k = sum(e)
        if k > d:
            raise ValueError(f"degree {k} > {d}")
        coeffs[k] = v
    return tuple(coeffs)


def expansion_is_zero(c: Circuit) -> bool:
    return not sparse_expand(c)


def expansion_individual_degrees(m: Monomials) -> Dict[int, int]:
    """True individual degree per variable index (0-based) of an expansion."""
    if not m:
        return {}
    width = len(next(iter(m)))
    return {j: max(e[j] for e in m) for j in range(width)}


def eval_expansion(m: Monomials, point: Tuple[int, ...]) -> int:
    acc = 0
    for exps, coeff in m.items():
        term = coeff
        for v, e in zip(point, exps):
            term *= v**e
        acc += term
    return acc


def brute_roots(c: Circuit, n: int, q: int):
    """Exhaustive root scan via the naive evaluator."""
    return [p for p in product(range(q), repeat=n) if naive_eval(c, p) == 0]


def pack_code_mixed_radix(code, n: int, d: int, q: int) -> int:
    """The code's index as a mixed-radix sum: (k - 1, i - 1) in radix d on
    top of q^(n-1), plus rest entry j (0-based) times q^j; 1-based."""
    idx = ((code.k - 1) * d + (code.i - 1)) * q ** (n - 1)
    for j, v in enumerate(code.rest):
        idx += v * q**j
    return idx + 1


def amplify_steps(g: BoolFunc, x: Bits, t: int) -> List[Bits]:
    """[h_0(x), h_1(x), ..., h_t(x)], each round spelled out by its
    definition h_j(x) = g(h_{j-1}(x)[first m]) : h_{j-1}(x)[rest]."""
    m = g.in_bits
    states = [x]
    for _ in range(t):
        states.append(call_per_bit(g, states[-1][:m]) + states[-1][m:])
    return states


def amplify_by_doubling(g: BoolFunc, t: int) -> BoolFunc:
    """amplify's full table by doubling: jump table k maps a head to the
    head after 2^k rounds and those rounds' fresh bits, packed newest first
    into one int, and the rows advance together along t's binary digits,
    O(2^m log t) big-int steps.  Row x is the int ``tail << m | head``."""
    m = g.in_bits
    mask = (1 << m) - 1
    heads = [row & mask for row in g.rows]  # the table for 2^0 rounds
    fresh = [row >> m for row in g.rows]
    head, tail = list(range(1 << m)), [0] * (1 << m)  # every row after 0 rounds
    for k in range(t.bit_length()):
        if k:  # the table for 2^k rounds from the one for 2^(k-1)
            span = 1 << (k - 1)
            fresh = [fresh[nxt] | fresh[h] << span for h, nxt in enumerate(heads)]
            heads = [heads[nxt] for nxt in heads]
        if t >> k & 1:
            tail = [fresh[hd] | tl << (1 << k) for hd, tl in zip(head, tail)]
            head = [heads[hd] for hd in head]
    return BoolFunc(m, m + t, tuple(tl << m | hd for hd, tl in zip(head, tail)))


def longest_walk_per_bit(g: BoolFunc, y: Bits, t: int) -> Tuple[int, List[Bits], List[Bits]]:
    """The walk query on bit tuples: the longest chain y_0 .. y_k, k <= t-1,
    with y_0 = y[:m+1] and y_{j+1} = w_j + (y[m+j+1],) for a g-preimage
    w_j of y_j.  Nodes are visited in tuple order and the endpoint is the
    least tuple of the last level, so ties go to the bit strings that
    compare first with bit 0 first.  Returns (k, [y_0..y_k], [w_0..w_{k-1}])."""
    m = g.in_bits
    index: Dict[Bits, List[Bits]] = {}
    for v, row in enumerate(g.rows):
        index.setdefault(int_to_bits(row, m + 1), []).append(int_to_bits(v, m))
    levels: List[Dict[Bits, Optional[Tuple[Bits, Bits]]]] = [{tuple(y[: m + 1]): None}]
    for j in range(t - 1):
        nxt: Dict[Bits, Optional[Tuple[Bits, Bits]]] = {}
        for node in sorted(levels[j]):
            for w in index.get(node, ()):
                child = w + (y[m + j + 1],)
                if child not in nxt:
                    nxt[child] = (node, w)
        if not nxt:
            break
        levels.append(nxt)
    k = len(levels) - 1
    ys = [min(levels[k])]
    ws: List[Bits] = []
    for j in range(k, 0, -1):
        parent, w = levels[j][ys[0]]
        ws.insert(0, w)
        ys.insert(0, parent)
    return k, ys, ws


def nonrange_by_tuples(cls: DefinableClass, h: HittingSet, cap: int) -> bool:
    """True iff no (x, a, code r-tuple) decodes to H's points in order,
    found by enumerating every r-tuple of codes; the cap bounds that
    domain, 2^m * q^n * (n*d*q^(n-1))^r."""
    n, d, q, r = cls.n, cls.d, h.q, h.r
    domain = (2**cls.m) * (q**n) * (n * d * q ** (n - 1)) ** r
    if domain > cap:
        raise CapExceededError(f"g-domain size {domain} exceeds the cap {cap}")
    codes = tuple(all_codes(n, d, q))
    for x in cls.descriptions():
        member = cls.member(x)
        for a in product(range(q), repeat=n):
            ctx = SZContext(member, n, d, q, a)
            decoded = {code: decode_code(ctx, code) for code in codes}
            for tup in product(codes, repeat=r):
                if tuple(decoded[c] for c in tup) == h.points:
                    return False
    return True


def triple_encode(i: int, j: int, k: int, r: int, n: int, w: int) -> int:
    """Bijection [r] x [n] x [w] -> [r*n*w]: ((i-1)n + (j-1))w + k, the
    number of the avoid template's param for bit k of coordinate j of
    point i."""
    if not (1 <= i <= r and 1 <= j <= n and 1 <= k <= w):
        raise PreconditionError(f"triple ({i},{j},{k}) outside [{r}]x[{n}]x[{w}]")
    return ((i - 1) * n + (j - 1)) * w + (k - 1) + 1


def triple_decode(idx: int, r: int, n: int, w: int) -> Tuple[int, int, int]:
    if not 1 <= idx <= r * n * w:
        raise PreconditionError(f"index {idx} outside [1..{r * n * w}]")
    v, k = divmod(idx - 1, w)
    i, j = divmod(v, n)
    return i + 1, j + 1, k + 1


def encode_hitting_set_per_bit(h_set: HittingSet, sched: AvoidSchedule, width: int) -> Bits:
    """H's bit string one position at a time, by the triple index:
    position e(i, j, k) carries bit k of coordinate j of point i, and
    every other position is 0.  Refuses what the encoder refuses, with
    the same errors."""
    r, n, w = sched.r, sched.n, sched.w
    if h_set.r != r or h_set.n != n or h_set.q != sched.q:
        raise DimensionMismatchError("hitting set does not match the schedule")
    if width < r * n * w:
        raise DimensionMismatchError(f"width {width} < r*n*w = {r * n * w}")
    bits = [0] * width
    for i, point in enumerate(h_set.points, start=1):
        for j, coord in enumerate(point, start=1):
            for k in range(1, w + 1):
                bits[triple_encode(i, j, k, r, n, w) - 1] = (coord >> (k - 1)) & 1
    return tuple(bits)


def derive_seed(seed: int, *labels: str) -> int:
    """The 64-bit seed of the stream at a label path, hashed from scratch:
    the first 8 bytes of SHA-256 over the seed and "/label" per label."""
    text = str(seed) + "".join("/" + label for label in labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def verify_witness_first(
    cls: DefinableClass,
    h: HittingSet,
    seed: int = 0,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
    class_cap: int = DEFAULT_CLASS_CAP,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> HSVerdict:
    """verify_hitting_set in the witness-first order: for each member, a
    seeded witness search on its own stream first, then every point of H
    evaluated separately; H misses the member iff all of them give 0."""
    if h.n != cls.n:
        raise DimensionMismatchError(f"hitting set dimension {h.n} != class dimension {cls.n}")
    if h.q < 2 * cls.d * cls.n:
        raise PreconditionError(f"q={h.q} < 2dn = {2 * cls.d * cls.n}")
    exhaustive = 2**cls.m <= class_cap
    rng = Rng(seed, "hs-verify")
    if exhaustive:
        descriptions = cls.descriptions()
    elif cls.sampler is not None:
        sample_rng = rng.split("sample")
        descriptions = (cls.sampler(sample_rng) for _ in range(class_cap))
    else:
        raise class_cap_error(cls.m, class_cap)
    for idx, x in enumerate(descriptions):
        ckt, params = cls.decode(x)
        text = "".join("01"[x >> j & 1] for j in range(cls.m))
        try:
            witness = find_small_witness(
                ckt, h.q,
                budget=witness_budget, rng=rng.split(f"{idx}:{text}"), cap=cap, params=params,
            )
        except ZeroOnCubeError:
            continue
        if all(eval_gates(ckt, p, params) == 0 for p in h.points):
            return HSVerdict(hits=False, x=text, witness=witness, exhaustive=exhaustive)
    return HSVerdict(hits=True, exhaustive=exhaustive)


def verify_every_member(
    cls: DefinableClass,
    h: HittingSet,
    seed: int = 0,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
    class_cap: int = DEFAULT_CLASS_CAP,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> HSVerdict:
    """verify_hitting_set without its skip: every description runs the
    witness search, H's points first, on its own stream, even when an
    earlier description gave the same member."""
    if h.n != cls.n:
        raise DimensionMismatchError(f"hitting set dimension {h.n} != class dimension {cls.n}")
    if h.q < 2 * cls.d * cls.n:
        raise PreconditionError(f"q={h.q} < 2dn = {2 * cls.d * cls.n}")
    exhaustive = 2**cls.m <= class_cap
    rng = Rng(seed, "hs-verify")
    if exhaustive:
        descriptions = cls.descriptions()
    elif cls.sampler is not None:
        sample_rng = rng.split("sample")
        descriptions = (cls.sampler(sample_rng) for _ in range(class_cap))
    else:
        raise class_cap_error(cls.m, class_cap)
    for idx, x in enumerate(descriptions):
        ckt, params = cls.decode(x)
        text = "".join("01"[x >> j & 1] for j in range(cls.m))
        try:
            witness = find_small_witness(
                ckt, h.q, witness_budget, rng.split(f"{idx}:{text}"), cap, params, first=h
            )
        except ZeroOnCubeError:
            continue
        if witness not in h.points:
            return HSVerdict(hits=False, x=text, witness=witness, exhaustive=exhaustive)
    return HSVerdict(hits=True, exhaustive=exhaustive)
