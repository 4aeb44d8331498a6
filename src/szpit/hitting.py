"""Hitting sets for definable classes of algebraic circuits.

A class is given by a decoding function, or by one template circuit and
a map from each description to the template's params, packed as bits into
one int: bitstrings of length m map to circuits with at most n variables,
maximum individual syntactic degree at most d, and representation size at
most s.  Members violating that contract are silently replaced by the
trivial constant-0 circuit, which keeps every description meaningful.

An r-sequence H of points in S_q^n is a hitting set for the class slice if
every member that is non-vanishing somewhere on Z^n is nonzero on at least
one point of H.  With q >= 2dn and r > m + n*|q| (|x| = ceil(log2(x+1))),
uniformly random H verifies with probability at least 1/2, which is what
``search_hitting_set`` exploits: sample, verify, repeat.

``nonrange_is_hitting`` checks the underlying counting argument directly at
micro scale: a tuple outside the image of the batch-decode map g is
necessarily a hitting set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional, Tuple

from .circuit import Circuit, Gate, analyze_degrees, circuit, pad_vars, param_digits, plug_params
from .circuit import representation_size
from .codec import SZContext, all_codes, decode_code
from .config import (
    DEFAULT_BITLEN_GUARD,
    DEFAULT_CLASS_CAP,
    DEFAULT_EXHAUSTION_CAP,
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_WITNESS_BUDGET,
)
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    PreconditionError,
    SearchBudgetError,
    SzpitError,
    WitnessBudgetError,
    ZeroOnCubeError,
)
from .evaluator import eval_gates, keep
from .rng import Rng


def bitlen(x: int) -> int:
    """The length function |x| = ceil(log2(x+1)), with |0| = 0."""
    return x.bit_length()


@dataclass(frozen=True)
class HittingSet:
    """An r-sequence of n-vectors over S_q; duplicates allowed."""

    points: Tuple[Tuple[int, ...], ...]
    n: int
    q: int

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.n:
                raise DimensionMismatchError(f"point {p!r} has length != {self.n}")
            for v in p:
                if not 0 <= v < self.q:
                    raise PreconditionError(f"coordinate {v} outside S_{self.q}")

    @property
    def r(self) -> int:
        return len(self.points)

    @property
    def size(self) -> int:
        """Number of distinct tuples."""
        return len(set(self.points))


def serialize_hitting_set(h: HittingSet) -> str:
    """One point per line, comma-separated coordinates."""
    return "\n".join(",".join(str(v) for v in p) for p in h.points) + "\n"


def parse_hitting_set(text: str, n: int, q: int) -> HittingSet:
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            points.append(tuple(int(tok) for tok in line.split(",")))
        except ValueError:
            raise PreconditionError(
                f"line {lineno}: want comma-separated integers, got {line!r}"
            ) from None
    return HittingSet(tuple(points), n, q)


def zero_circuit(n: int = 0) -> Circuit:
    """The trivial constant-0 circuit, padded to n variables."""
    return pad_vars(circuit([Gate.const(0)]), n)


@dataclass
class DefinableClass:
    """A decoder-presented class of at most 2^m algebraic circuits.

    :meth:`decode` gives the member at description x as ``(circuit, R)``
    with packed params R, evaluated by ``eval_gates(circuit, point, R)``.
    A template class gives ``template`` and ``params_of``, which maps x to
    packed bits R, an int whose bit k - 1 is the value of pk; any other
    value raises :class:`PreconditionError`.  Its members share one gate
    layout and each writes one digit per param use, so variable count,
    degree and size are checked once per class, against the all-zero
    member, and a member is decoded in O(1); ``s = 0`` means that member's
    size.  An R outside ``[0, 2^n_params)`` gives the constant-0 member.
    A decoder class gives ``decoder`` (x -> circuit); its members are
    ``(circuit, 0)``, each fully checked.  Members outside Ckt(n, d, s)
    are replaced by the constant-0 circuit; surjectivity of caller-supplied
    decoders onto their intended class is a trust assumption that cannot be
    verified here.
    """

    decoder: Optional[Callable[[str], Circuit]]
    n: int
    d: int
    s: int
    m: int
    # Membership sampler for classes too large to enumerate: maps an Rng to
    # a description.  Verification then degrades to seeded spot-checking.
    sampler: Optional[Callable[["Rng"], str]] = None
    template: Optional[Circuit] = None
    params_of: Optional[Callable[[str], int]] = None

    def __post_init__(self):
        if (self.decoder is None) == (self.template is None):
            raise PreconditionError("a class needs exactly one of decoder and template")
        if self.template is not None:
            self._init_template()
        if self.n < 1 or self.d < 1 or self.s < 1 or self.m < 0:
            raise PreconditionError("class parameters must satisfy n,d,s >= 1 and m >= 0")
        self._zero = zero_circuit(self.n)

    def _init_template(self) -> None:
        fits = self.template.n_vars <= self.n
        t = self.template = pad_vars(self.template, self.n) if fits else self.template
        # The all-zero member writes "const 0" where t writes "param p<k>".
        # Every member writes one digit there, so all have this size.  Both
        # terms are kept on t, which every avoid solve on a schedule shares.
        zero_size = representation_size(t) - 8 * param_digits(t)
        self.s = self.s or zero_size
        self._template_fits = (
            fits and zero_size <= self.s and analyze_degrees(t).max_individual <= self.d
        )
        if self._template_fits:  # every member evaluates t: compile it once
            keep(t)

    def descriptions(self) -> Iterator[str]:
        for bits in product("01", repeat=self.m):
            yield "".join(bits)

    def decode(self, x: str) -> Tuple[Circuit, int]:
        """The member at description x, as ``(circuit, R)``."""
        if len(x) != self.m or x.strip("01"):
            raise PreconditionError(f"description {x!r} is not a bitstring of length {self.m}")
        if self.template is not None:
            params = self.params_of(x)
            if params.__class__ is not int:
                raise PreconditionError(
                    f"params_of({x!r}) gave {params!r}, not packed bits as an int"
                )
            if self._template_fits and 0 <= params and not params >> self.template.n_params:
                return self.template, params
            return self._zero, 0
        try:
            member = pad_vars(self.decoder(x), self.n)
            if self._in_ckt(member):
                return member, 0
        except SzpitError:
            pass
        return self._zero, 0

    def _in_ckt(self, c: Circuit) -> bool:
        if c.n_vars > self.n or c.n_params:
            return False
        if representation_size(c) > self.s:
            return False
        return analyze_degrees(c).max_individual <= self.d

    def member(self, x: str) -> Circuit:
        """The member at description x as one circuit, params plugged."""
        ckt, R = self.decode(x)
        if not ckt.n_params:
            return ckt
        return plug_params(ckt, {k: R >> (k - 1) & 1 for k in range(1, ckt.n_params + 1)})


@dataclass(frozen=True)
class HSVerdict:
    """Outcome of hitting-set verification.

    ``hits`` is the positive verdict; otherwise ``x`` names a member that H
    misses and ``witness`` is a point where that member is nonzero.
    ``exhaustive`` is False when only sampled descriptions were checked, in
    which case a Hits verdict is reported evidence, not a proof.
    """

    hits: bool
    x: Optional[str] = None
    witness: Optional[Tuple[int, ...]] = None
    exhaustive: bool = True


def find_small_witness(
    ckt: Circuit,
    n: int,
    d: int,
    q: int,
    budget: int = DEFAULT_WITNESS_BUDGET,
    rng: Optional[Rng] = None,
    cap: int = DEFAULT_EXHAUSTION_CAP,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
    params: int = 0,
    first: Optional[HittingSet] = None,
) -> Tuple[int, ...]:
    """Find a point of S_q^n where the member ``(ckt, params)``, as given by
    :meth:`DefinableClass.decode`, evaluates nonzero.

    Requires q >= 2dn, which guarantees that a non-vanishing circuit is
    nonzero on at least half the cube, so seeded uniform sampling finds a
    witness quickly.  The points of ``first`` (same n and q) are tried in
    order before any draw, so a drawn witness is never one of them.  When
    the budget runs out the cube is scanned exhaustively if it fits the
    cap; an empty scan proves the circuit vanishes on the whole cube (and
    hence, at this q, everywhere).
    """
    if n != ckt.n_vars:
        raise DimensionMismatchError(f"n={n} but circuit has {ckt.n_vars} variables")
    true_d = analyze_degrees(ckt).max_individual
    if d < true_d:
        raise PreconditionError(f"declared degree {d} below actual {true_d}")
    if q < 2 * d * n:
        raise PreconditionError(f"q={q} < 2dn = {2 * d * n}")
    if first is not None:
        if (first.n, first.q) != (n, q):
            raise DimensionMismatchError(f"first has n={first.n}, q={first.q}; want n={n}, q={q}")
        for w in first.points:
            if eval_gates(ckt, w, params, bitlen_guard) != 0:
                return w
    rng = rng or Rng(0, "witness")
    for _ in range(budget):
        w = rng.point(n, q)
        if eval_gates(ckt, w, params, bitlen_guard) != 0:
            return w
    if q**n <= cap:
        for w in product(range(q), repeat=n):
            if eval_gates(ckt, w, params, bitlen_guard) != 0:
                return w
        raise ZeroOnCubeError(trials=budget, points=q**n)
    raise WitnessBudgetError(trials=budget)


def class_cap_error(m: int, class_cap: int) -> CapExceededError:
    """The refusal of a 2^m-member class past ``class_cap`` that supplies
    no membership sampler."""
    return CapExceededError(
        f"2^m = {2 ** m} exceeds the class cap {class_cap} and the "
        "class supplies no membership sampler"
    )


def verify_hitting_set(
    cls: DefinableClass,
    h: HittingSet,
    seed: int = 0,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
    class_cap: int = DEFAULT_CLASS_CAP,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> HSVerdict:
    """Decide whether H hits every non-vanishing member of the slice.

    Descriptions are enumerated in lexicographic order, so the returned
    Misses pair is deterministic for a fixed seed.  The witness search
    tries H's points first, so H misses a member iff its witness is not in
    H.  Because q >= 2dn is required, the witness search is a complete
    test of non-vanishing at desk scale and the witness accompanying a
    miss lies in S_q^n.
    """
    if h.n != cls.n:
        raise DimensionMismatchError(f"hitting set dimension {h.n} != class dimension {cls.n}")
    if h.q < 2 * cls.d * cls.n:
        raise PreconditionError(f"q={h.q} < 2dn = {2 * cls.d * cls.n}")
    exhaustive = 2**cls.m <= class_cap
    rng = Rng(seed, "hs-verify")
    if exhaustive:
        descriptions = cls.descriptions()
    elif cls.sampler is not None:
        # Spot-checking: a Hits verdict is then evidence, not proof.
        sample_rng = rng.split("sample")
        descriptions = (cls.sampler(sample_rng) for _ in range(class_cap))
    else:
        raise class_cap_error(cls.m, class_cap)
    for idx, x in enumerate(descriptions):
        ckt, params = cls.decode(x)
        try:
            witness = find_small_witness(
                ckt, cls.n, cls.d, h.q,
                budget=witness_budget, rng=rng.split(f"{idx}:{x}"), cap=cap, params=params,
                first=h,
            )
        except ZeroOnCubeError:
            continue  # vanishing member: hit vacuously
        if witness not in h.points:
            return HSVerdict(hits=False, x=x, witness=witness, exhaustive=exhaustive)
    return HSVerdict(hits=True, exhaustive=exhaustive)


def search_hitting_set(
    cls: DefinableClass,
    q: int,
    r: int,
    seed: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
    class_cap: int = DEFAULT_CLASS_CAP,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> HittingSet:
    """Sample uniform H from (S_q^n)^r and verify, up to ``budget`` draws.

    Preconditions mirror the existence guarantee: q >= 2dn and
    r > m + n*|q|, under which at least half of all draws verify.
    """
    if q < 2 * cls.d * cls.n:
        raise PreconditionError(f"q={q} < 2dn = {2 * cls.d * cls.n}")
    if r <= cls.m + cls.n * bitlen(q):
        raise PreconditionError(
            f"r={r} <= m + n*|q| = {cls.m + cls.n * bitlen(q)}; largeness fails"
        )
    rng = Rng(seed, "hs-search")
    last_miss = None
    for attempt in range(budget):
        draw = rng.split(f"draw{attempt}")
        points = tuple(draw.point(cls.n, q) for _ in range(r))
        h = HittingSet(points, cls.n, q)
        verdict = verify_hitting_set(
            cls, h, seed=seed, witness_budget=witness_budget,
            class_cap=class_cap, cap=cap,
        )
        if verdict.hits:
            return h
        last_miss = verdict.x
    raise SearchBudgetError(draws=budget, last_miss=last_miss)


def nonrange_is_hitting(
    cls: DefinableClass,
    h: HittingSet,
    cap: int = DEFAULT_EXHAUSTION_CAP,
) -> bool:
    """True iff H lies outside the image of the batch-decode map g.

    g sends (x, a, code r-tuple) to the r points the codes decode to
    against member x at reference point a.  The r codes are free, so H is
    in the image iff, for some (x, a), every point of H is the decode of
    some code.  That takes one decode per (x, a, code), linear in r: the
    cap bounds those 2^m * q^n * n*d*q^(n-1) decodes, so it is practical
    only for micro parameters.  Whenever it returns True,
    verify_hitting_set must return Hits.
    """
    n, d, q = cls.n, cls.d, h.q
    decodes = (2**cls.m) * (q**n) * n * d * q ** (n - 1)
    if decodes > cap:
        raise CapExceededError(f"{decodes} code decodes exceed the cap {cap}")
    codes = tuple(all_codes(n, d, q))
    target = set(h.points)
    for x in cls.descriptions():
        member = cls.member(x)
        for a in product(range(q), repeat=n):
            ctx = SZContext(member, n, d, q, a)
            if target <= {decode_code(ctx, code) for code in codes}:
                return False
    return True


def largeness_holds(n: int, d: int, q: int, r: int, m: int) -> bool:
    """The domain/range inequality behind hitting-set existence: b >= 2a.

    a = 2^m * n^r * d^r * q^((n-1)r + n) counts (member, reference point,
    code r-tuple) triples; b = q^(nr) counts candidate hitting sets.
    """
    a = (2**m) * (n**r) * (d**r) * q ** ((n - 1) * r + n)
    b = q ** (n * r)
    return b >= 2 * a
