"""Independent test oracles.

Everything here re-derives results from first principles with different
algorithms than the library uses (recursion instead of gate-order loops,
explicit monomial dictionaries instead of evaluation), so agreement is
meaningful evidence rather than an identity check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Collection, Dict, List, Tuple

from szpit.avoid import AvoidSchedule, triple_encode
from szpit.boolfunc import BoolFunc, Bits
from szpit.circuit import ADD, CONST, PARAM, VAR, Circuit
from szpit.errors import DimensionMismatchError
from szpit.hitting import HittingSet


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


def amplify_steps(g: BoolFunc, x: Bits, t: int) -> List[Bits]:
    """[h_0(x), h_1(x), ..., h_t(x)], each round spelled out by its
    definition h_j(x) = g(h_{j-1}(x)[first m]) : h_{j-1}(x)[rest]."""
    m = g.in_bits
    states = [x]
    for _ in range(t):
        states.append(g(states[-1][:m]) + states[-1][m:])
    return states


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
