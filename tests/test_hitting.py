"""Hitting sets: witnesses, verification, search, the non-range criterion."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import szpit.hitting as hitting_mod
from szpit.avoid import AvoidInstance, amplify, build_avoid_class, desk_schedule, normalize
from szpit.circuit import Gate, circuit, pad_vars
from szpit.classes import all_circuits_class, linear_class, monomial_class, multilinear_class
from szpit.codec import RootCode
from szpit.config import DEFAULT_CLASS_CAP, DEFAULT_EXHAUSTION_CAP
from szpit.errors import (
    CapExceededError,
    DimensionMismatchError,
    PreconditionError,
    SearchBudgetError,
    WitnessBudgetError,
    ZeroOnCubeError,
)
from szpit.evaluator import eval_gates
from szpit.hitting import (
    DefinableClass,
    HSVerdict,
    HittingSet,
    bitlen,
    find_small_witness,
    largeness_holds,
    nonrange_is_hitting,
    parse_hitting_set,
    search_hitting_set,
    serialize_hitting_set,
    verify_hitting_set,
    zero_circuit,
)
from szpit.rng import Rng

from helpers import LINE_BREAKS, SCRIPTS, SPACES, g_map, in_script, random_bits
from oracles import bits_to_int, nonrange_by_tuples, verify_every_member, verify_witness_first


def product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def singleton_class(ckt, n, d, s=4096):
    return DefinableClass(decoder=lambda x: ckt, n=n, d=d, s=s, m=0)


def test_find_small_witness_product():
    w = find_small_witness(product_circuit(), 4, rng=Rng(3, "w"))
    assert w[0] in (1, 2, 3) and w[1] in (1, 2, 3)


def test_find_small_witness_zero_circuit():
    with pytest.raises(ZeroOnCubeError) as exc:
        find_small_witness(zero_circuit(1), 4, budget=10, rng=Rng(3, "w"))
    assert exc.value.trials == 10


def test_find_small_witness_constant_one():
    c = circuit([Gate.var(1), Gate.const(0), Gate.mul(0, 1), Gate.const(1), Gate.add(2, 3)])
    assert find_small_witness(c, 4, rng=Rng(3, "w")) is not None


def test_find_small_witness_requires_large_q():
    with pytest.raises(PreconditionError):
        find_small_witness(product_circuit(), 3)


def test_find_small_witness_reads_n_and_d_from_the_circuit():
    # x1 * x1 * x2 has individual degree 2 in two variables: 2dn = 8.
    square_times = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 0), Gate.mul(2, 1)])
    w = find_small_witness(square_times, 8, rng=Rng(3, "w"))
    assert len(w) == 2 and all(0 <= v < 8 for v in w)
    assert eval_gates(square_times, w) != 0
    with pytest.raises(PreconditionError, match="2dn = 8"):
        find_small_witness(square_times, 7)


@pytest.mark.parametrize("n", [0, 2])
def test_find_small_witness_refuses_q_0_before_any_draw(n):
    # A constant member has d = 0, so 2dn = 0; q = 0 is still refused as a
    # precondition, before a draw could raise ValueError on the empty S_0.
    with pytest.raises(PreconditionError, match="q=0"):
        find_small_witness(pad_vars(circuit([Gate.const(1)]), n), 0, rng=Rng(3, "w"))


def test_find_small_witness_tries_first_in_order_before_any_draw():
    h = HittingSet(((0, 1), (2, 3), (1, 1)), 2, 4)
    rng = Rng(3, "w")
    assert find_small_witness(product_circuit(), 4, budget=0, rng=rng, cap=0, first=h) == (2, 3)
    assert "_random" not in vars(rng)  # the stream was never drawn from


def test_find_small_witness_draws_only_after_first_zeroes():
    # Every point of first is a root, so the witness is the stream's.
    h = HittingSet(((0, 1), (3, 0)), 2, 4)
    got = find_small_witness(product_circuit(), 4, rng=Rng(3, "w"), first=h)
    assert got == find_small_witness(product_circuit(), 4, rng=Rng(3, "w"))
    assert got not in h.points


@pytest.mark.parametrize("n, q", [(1, 4), (3, 6), (2, 5)])
def test_find_small_witness_refuses_a_first_of_other_n_or_q(n, q):
    first = HittingSet(((1,) * n,), n, q)
    with pytest.raises(DimensionMismatchError):
        find_small_witness(product_circuit(), 4, first=first)


def test_g_map_decodes_componentwise():
    cls = singleton_class(product_circuit(), 2, 1)
    codes = (RootCode(1, 1, (1,)), RootCode(2, 1, (1,)))
    assert g_map(cls, "", (1, 1), codes, q=2) == ((0, 1), (1, 0))


def test_g_map_dont_care_value():
    cls = singleton_class(product_circuit(), 2, 1)
    codes = (RootCode(1, 1, (1,)), RootCode(2, 1, (1,)))
    assert g_map(cls, "", (0, 0), codes, q=2) == ((0, 0), (0, 0))
    assert g_map(cls, "", (1, 1), (), q=2) == ()


def test_verify_hits_singleton():
    cls = singleton_class(product_circuit(), 2, 1)
    h = HittingSet(((1, 1),), 2, 4)
    assert verify_hitting_set(cls, h).hits


def test_verify_misses_with_witness():
    cls = singleton_class(product_circuit(), 2, 1)
    h = HittingSet(((0, 5), (5, 0)), 2, 6)
    verdict = verify_hitting_set(cls, h)
    assert not verdict.hits
    assert verdict.x == ""
    assert eval_gates(product_circuit(), verdict.witness) != 0
    assert all(0 <= v < 6 for v in verdict.witness)
    assert verdict.witness not in h.points


def test_member_that_h_hits_never_reaches_the_draws():
    # No trials and a cube past the cap: a witness search would raise, but
    # H hits the member at its first point, so no search runs.
    cls = singleton_class(product_circuit(), 2, 1)
    h = HittingSet(((1, 1),), 2, 4)
    with pytest.raises(WitnessBudgetError):
        verify_witness_first(cls, h, witness_budget=0, cap=1)
    assert verify_hitting_set(cls, h, witness_budget=0, cap=1) == HSVerdict(hits=True)


def test_verify_vacuous_on_zero_class():
    cls = singleton_class(zero_circuit(2), 2, 1)
    assert verify_hitting_set(cls, HittingSet(((0, 0),), 2, 4)).hits


def test_class_decoder_fallback_to_zero():
    # Decoder output outside Ckt(n, d, s) is replaced by the zero circuit.
    big = circuit([Gate.var(1), Gate.mul(0, 0), Gate.mul(1, 1)])  # degree 4
    cls = DefinableClass(decoder=lambda x: big, n=1, d=2, s=4096, m=1)
    member, params = cls.decode(0)
    assert all(eval_gates(member, (u,), params) == 0 for u in range(4))


def test_descriptions_are_the_texts_in_lexicographic_order():
    # Character j of the text is bit j of x, so bit m - 1 changes fastest.
    for m in range(13):
        cls = DefinableClass(decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m)
        want = [bits_to_int(map(int, text)) for text in product("01", repeat=m)]
        assert list(cls.descriptions()) == want


def params_template(k):
    """x1 * x2 * p1 * ... * pk."""
    gates = [Gate.var(1), Gate.var(2), Gate.mul(0, 1)]
    for j in range(1, k + 1):
        gates += [Gate.param(j), Gate.mul(len(gates) - 1, len(gates))]
    return circuit(gates)


# A description is an int in [0, 2^m): text, a bool, a float, or an int
# out of range is refused, at m = 0 every x but 0.
@pytest.mark.parametrize("m, x", [
    (3, "0a1"), (3, "01 "), (3, " 01"), (3, "2"), (0, "0"), (2, "01"),
    (3, True), (3, 1.0), (3, -1), (3, 8), (0, 1), (0, -1),
])
def test_decode_refuses_a_description_that_is_not_a_bitstring(m, x):
    want = f"description {x!r} is not an int in [0, 2^{m})"
    for cls in (
        DefinableClass(decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m),
        DefinableClass(decoder=None, template=params_template(m), n=2, d=1, s=0, m=m),
    ):
        with pytest.raises(PreconditionError) as err:
            cls.decode(x)
        assert str(err.value) == want


@pytest.mark.parametrize("m, text", [(3, "010"), (3, "111"), (3, "000"), (0, "")])
def test_decode_takes_every_bitstring_of_length_m(m, text):
    x = bits_to_int(map(int, text))  # 0 to 2^m - 1
    cls = DefinableClass(decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m)
    assert cls.decode(x) == (product_circuit(), 0)
    # With no params_of, a template class's packed params are x itself.
    cls = DefinableClass(decoder=None, template=params_template(m), n=2, d=1, s=0, m=m)
    assert cls.decode(x) == (cls.template, x)


def test_search_finds_verified_hitting_set():
    cls = multilinear_class(2, d=2)
    assert cls.m == 4
    h = search_hitting_set(cls, q=8, r=13, seed=7)
    assert h.r == 13
    assert verify_hitting_set(cls, h).hits


def test_search_rejects_small_r():
    cls = multilinear_class(2, d=2)
    with pytest.raises(PreconditionError):
        search_hitting_set(cls, q=8, r=cls.m + 2 * bitlen(8), seed=7)


def test_search_trivial_on_zero_class():
    cls = DefinableClass(decoder=lambda x: zero_circuit(2), n=2, d=1, s=4096, m=1)
    h = search_hitting_set(cls, q=4, r=8, seed=1, budget=1)
    assert h.r == 8


def test_search_budget_error_reports_draws():
    # An unhittable "class": decoder ignores r and produces x1*x2 while we
    # verify against single-point sets drawn from roots only -- force misses
    # by drawing with budget 0 draws... instead use a class whose members
    # cannot all be hit by r=13 points of the wrong q?  Simpler: budget=0.
    cls = multilinear_class(2, d=2)
    with pytest.raises(SearchBudgetError) as exc:
        search_hitting_set(cls, q=8, r=13, seed=7, budget=0)
    assert exc.value.draws == 0


def test_search_names_the_member_its_last_draw_missed():
    # Seed 16's first H misses the member x1 (text "01") of the multilinear
    # class at n = 1, so one draw ends in SearchBudgetError naming it.
    cls = multilinear_class(1, d=1)
    first = HittingSet(tuple(Rng(16, "hs-search").split("draw0").points(1, 2, 6)), 1, 2)
    assert verify_hitting_set(cls, first, seed=16) == HSVerdict(False, "01", (1,))
    with pytest.raises(SearchBudgetError) as exc:
        search_hitting_set(cls, q=2, r=6, seed=16, budget=1)
    assert (exc.value.draws, exc.value.last_miss) == (1, "01")
    assert search_hitting_set(cls, q=2, r=6, seed=16, budget=2).r == 6


def test_hitting_set_refusals_name_n_and_q():
    cls = multilinear_class(2, d=2)  # 2dn = 8
    with pytest.raises(DimensionMismatchError, match="^hitting set dimension 3 != class dimension 2$"):
        verify_hitting_set(cls, HittingSet(((0, 0, 0),), 3, 8))
    with pytest.raises(PreconditionError, match="^q=7 < 2dn = 8$"):
        verify_hitting_set(cls, HittingSet(((0, 0),), 2, 7))
    with pytest.raises(PreconditionError, match="^q=7 < 2dn = 8$"):
        search_hitting_set(cls, q=7, r=20, seed=7)


def test_a_hitting_set_point_of_the_wrong_length_is_refused():
    with pytest.raises(DimensionMismatchError, match=r"^point \(0,\) has length != 2$"):
        HittingSet(((0, 0), (0,)), 2, 3)


def test_a_decoder_that_raises_gives_the_class_zero_member():
    # Any SzpitError from the decoder gives the one constant-0 member the
    # class keeps; a decoder's other exceptions are bugs and propagate.
    errors = [PreconditionError("refused"), DimensionMismatchError("refused"), ValueError("a bug")]

    def decoder(x):
        raise errors[x]

    cls = DefinableClass(decoder=decoder, n=2, d=1, s=4096, m=2)
    zero, params = cls.decode(0)
    assert (zero, params) == (zero_circuit(2), 0)
    assert cls.decode(1)[0] is zero
    with pytest.raises(ValueError, match="a bug"):
        cls.decode(2)


def test_zero_circuit_is_n_variables_then_const_0():
    assert zero_circuit().gates == (Gate.const(0),)
    assert zero_circuit(3).gates == (*map(Gate.var, (1, 2, 3)), Gate.const(0))
    assert zero_circuit(3) == pad_vars(circuit([Gate.const(0)]), 3)


def test_nonrange_implies_hitting_micro():
    # n=2, d=1, q=4, r=1, m in {1, 2}: exhaustively check the implication.
    for cls in (monomial_class(2), linear_class(2)):
        found_true = found_false = False
        for v0 in range(4):
            for v1 in range(4):
                h = HittingSet(((v0, v1),), 2, 4)
                outside = nonrange_is_hitting(cls, h)
                if outside:
                    found_true = True
                    assert verify_hitting_set(cls, h).hits
                else:
                    found_false = True
        assert found_true and found_false


def test_nonrange_planted_preimage():
    cls = monomial_class(2)
    planted = g_map(cls, "1", (1, 1), (RootCode(1, 1, (2,)),), q=4)
    h = HittingSet(planted, 2, 4)
    assert not nonrange_is_hitting(cls, h)


MICRO_CLASSES = (monomial_class(1), monomial_class(2), linear_class(1), linear_class(2))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(MICRO_CLASSES), st.integers(2, 4), st.integers(0, 2), st.data())
def test_nonrange_matches_the_tuple_enumeration(cls, q, r, data):
    # Points drawn from a small pool, so H is often inside the image.
    pool = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * cls.n), min_size=1))
    points = tuple(data.draw(st.sampled_from(pool)) for _ in range(r))
    h = HittingSet(points, cls.n, q)
    assert nonrange_is_hitting(cls, h) == nonrange_by_tuples(cls, h, DEFAULT_EXHAUSTION_CAP)


def test_nonrange_past_the_largeness_bound_is_hitting():
    # r = m + n|q| + 1 at q = 4 = 2dn, where the tuple domain (8^r code
    # tuples per member and reference point) is past any cap: the decodes
    # stay 2^m * 16 * 8, and every draw outside the image verifies.
    q, draws = 4, 50
    for cls in (monomial_class(2), linear_class(2)):
        r = cls.m + cls.n * bitlen(q) + 1
        assert largeness_holds(n=cls.n, d=cls.d, q=q, r=r, m=cls.m)
        rng = Rng(431, f"nonrange-large:{cls.m}")
        outside = 0
        for i in range(draws):
            h = HittingSet(tuple(rng.points(cls.n, q, r)), cls.n, q)
            if nonrange_is_hitting(cls, h):
                outside += 1
                assert verify_hitting_set(cls, h).hits
        assert outside > draws // 2


def test_nonrange_cap_bounds_the_decodes():
    # monomial_class(2) at q = 4 decodes 2 members x 16 points x 8 codes,
    # whatever r is; the old cap counted 8^r code tuples.
    cls = monomial_class(2)
    h = HittingSet(((1, 2),) * 9, 2, 4)
    assert nonrange_is_hitting(cls, h, cap=256) is True
    with pytest.raises(CapExceededError, match="^256 code decodes exceed the cap 255$"):
        nonrange_is_hitting(cls, h, cap=255)


def test_largeness_examples():
    assert largeness_holds(n=2, d=2, q=8, r=13, m=4)
    # Well below the r > m + n|q| threshold the count flips.
    assert not largeness_holds(n=2, d=2, q=8, r=10, m=4)
    # The desk parameters used by the avoidance pipeline.
    from szpit.avoid import desk_schedule

    for m in range(0, 5):
        s = desk_schedule(m)
        assert largeness_holds(n=s.n, d=s.d, q=s.q, r=s.r, m=m)


def test_success_density_at_example_parameters():
    cls = multilinear_class(2, d=2)
    rng = Rng(2024, "density")
    hits = 0
    draws = 120
    for i in range(draws):
        points = tuple(rng.points(2, 8, 13))
        if verify_hitting_set(cls, HittingSet(points, 2, 8)).hits:
            hits += 1
    assert hits / draws >= 0.4


def test_hitting_set_text_roundtrip():
    h = HittingSet(((1, 2), (3, 0)), 2, 4)
    text = serialize_hitting_set(h)
    assert text == "1,2\n3,0\n"
    assert parse_hitting_set(text, 2, 4) == h


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
def test_hitting_set_reader_reads_ascii_integers_only(script):
    # Signs and spaces read as int() reads them; another script's digits,
    # or a "_" separator, are refused as any other bad number is.
    assert parse_hitting_set(" +1 , 2\n", 2, 4).points == ((1, 2),)
    for line in (in_script("1,2", script), "1_0,2"):
        with pytest.raises(PreconditionError) as exc:
            parse_hitting_set(f"0,0\n{line}\n", 2, 16)
        assert str(exc.value) == f"line 2: want comma-separated integers, got {line!r}"


def test_hitting_set_reader_names_the_line_of_a_bad_number():
    # int() alone would raise a bare ValueError naming no line.
    with pytest.raises(PreconditionError, match="^line 1: want comma-separated integers"):
        parse_hitting_set("1,a\n", 2, 4)
    with pytest.raises(PreconditionError, match="^line 3: .*got '2,'$"):
        parse_hitting_set("1,2\n\n2,\n", 2, 4)


def test_hitting_set_size_counts_distinct():
    h = HittingSet(((1, 1), (1, 1), (0, 2)), 2, 4)
    assert h.r == 3 and h.size == 2


def test_verify_spot_checking_beyond_cap():
    # A class too large to enumerate must bring its own sampler; the
    # verdict is then flagged as non-exhaustive evidence.
    cls = DefinableClass(
        decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=40,
        sampler=lambda rng: random_bits(rng, 40),
    )
    h = HittingSet(((1, 1),), 2, 4)
    verdict = verify_hitting_set(cls, h, class_cap=64)
    assert verdict.hits and not verdict.exhaustive
    no_sampler = DefinableClass(
        decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=40
    )
    with pytest.raises(Exception):
        verify_hitting_set(no_sampler, h, class_cap=64)


def sampled_product_class(m):
    """x1 * x2 at every one of 2^m descriptions, spot-checked by sampling."""
    return DefinableClass(
        decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m,
        sampler=lambda rng: random_bits(rng, m),
    )


# Misses of H = ((0, 0),), whose witness is drawn from the member's own
# stream, labelled "<index>:<x as text>": each witness pins that label.
@pytest.mark.parametrize("cls, q, seed, class_cap, x, witness, exhaustive", [
    (multilinear_class(2), 4, 0, DEFAULT_CLASS_CAP, "0001", (1, 3), True),
    (multilinear_class(2), 4, 5, DEFAULT_CLASS_CAP, "0001", (3, 1), True),
    (all_circuits_class(2, 2, 400, 10), 8, 0, DEFAULT_CLASS_CAP, "0000000010", (6, 3), True),
    (all_circuits_class(2, 2, 400, 10), 8, 1, DEFAULT_CLASS_CAP, "0000000010", (5, 6), True),
    (sampled_product_class(40), 4, 2, 64, "1101001001110101011101100111110001000111", (3, 1), False),
])
def test_verify_pins_the_witness_stream_of_a_miss(cls, q, seed, class_cap, x, witness, exhaustive):
    h = HittingSet(((0, 0),), 2, q)
    verdict = verify_hitting_set(cls, h, seed=seed, class_cap=class_cap)
    assert verdict == HSVerdict(hits=False, x=x, witness=witness, exhaustive=exhaustive)


def test_nonrange_degenerate_empty_sequence():
    # r = 0: the image of the empty-tuple map is {()}, so the empty H is
    # always inside it.
    cls = monomial_class(2)
    h = HittingSet((), 2, 4)
    assert nonrange_is_hitting(cls, h) is False


def _small_decoder(x: int):
    """Four shapes at n = 2, d = 1: a product, a sum plus 1, x1 - x1 (a
    nonzero circuit of the zero polynomial), and x1^2 (degree 2, so the
    class replaces it by the constant-0 member)."""
    g = [Gate.var(1), Gate.var(2)]
    shape = x % 4
    if shape == 0:
        g.append(Gate.mul(0, 1))
    elif shape == 1:
        g += [Gate.add(0, 1), Gate.const(1), Gate.add(2, 3)]
    elif shape == 2:
        g += [Gate.const(-1), Gate.mul(0, 2), Gate.add(0, 3)]
    else:
        g.append(Gate.mul(0, 0))
    return circuit(g)


# (class, class_cap): the builtin classes at n <= 2, a decoder class with
# an identically-zero and an invalid member, and a sampled class whose
# 2^m = 8 members are spot-checked 4 at a time.
VERIFY_CASES = (
    *((c, DEFAULT_CLASS_CAP) for c in (*MICRO_CLASSES, multilinear_class(1), multilinear_class(2))),
    (DefinableClass(decoder=_small_decoder, n=2, d=1, s=4096, m=2), DEFAULT_CLASS_CAP),
    (DefinableClass(decoder=_small_decoder, n=2, d=1, s=4096, m=3,
                    sampler=lambda rng: random_bits(rng, 3)), 4),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(VERIFY_CASES), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2**32), st.data())
def test_verify_matches_the_witness_first_order(case, dq, r, budget, seed, data):
    cls, class_cap = case
    q = 2 * cls.d * cls.n + dq
    points = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * cls.n), min_size=r, max_size=r))
    h = HittingSet(tuple(points), cls.n, q)
    kw = dict(seed=seed, witness_budget=budget, class_cap=class_cap)
    verdict = verify_hitting_set(cls, h, **kw)
    assert verdict == verify_witness_first(cls, h, **kw)
    if not verdict.hits:
        ckt, params = cls.decode(bits_to_int(map(int, verdict.x)))
        assert eval_gates(ckt, verdict.witness, params) != 0
        assert verdict.witness not in h.points


@lru_cache(maxsize=None)
def avoid_class_of(table):
    """The avoid class that avoid_via_hitting builds for f = table, b = 2a."""
    g, _ = normalize(AvoidInstance(len(table), 2 * len(table), table))
    sched = desk_schedule(g.in_bits)
    return build_avoid_class(amplify(g, sched.t_prime - g.in_bits), sched), sched


def avoid_member_zeros(cls, sched, x):
    """The points of S_q^2 where avoid member x vanishes: the r points its
    params spell, w bits a coordinate, less those with a coordinate q."""
    _, R = cls.decode(x)
    w, n = sched.w, sched.n
    spelled = [tuple(R >> (i * n + j) * w & (1 << w) - 1 for j in range(n)) for i in range(sched.r)]
    return [p for p in spelled if max(p) < sched.q]


def draw_avoid_case(data):
    # a <= 16, so up to 16 members, many of which share a row of h.
    a = data.draw(st.integers(1, 16), label="a")
    table = tuple(data.draw(st.lists(st.integers(1, 2 * a), min_size=a, max_size=a), label="f"))
    cls, sched = avoid_class_of(table)
    # Some of member x's own zeros, so H often misses x, and some draws.
    x = data.draw(st.integers(0, (1 << cls.m) - 1), label="x")
    zeros = avoid_member_zeros(cls, sched, x)
    own = data.draw(st.lists(st.sampled_from(zeros), max_size=3) if zeros else st.just([]))
    coord = st.integers(0, sched.q - 1)
    drawn = data.draw(st.lists(st.tuples(coord, coord), max_size=2), label="drawn")
    return cls, HittingSet(tuple(own + drawn), cls.n, sched.q), DEFAULT_CLASS_CAP


def draw_template_case(data):
    # A multilinear template whose params_of takes the 2^m descriptions onto
    # at most 3 values of R; an R past the template's params is the zero member.
    n = data.draw(st.integers(1, 2), label="n")
    m = data.draw(st.integers(0, 6), label="m")
    template = multilinear_class(n).template
    values = data.draw(st.lists(st.integers(-1, (1 << template.n_params) + 1), min_size=1, max_size=3))
    picks = data.draw(st.lists(st.sampled_from(values), min_size=1 << m, max_size=1 << m))
    cls = DefinableClass(decoder=None, n=n, d=1, s=0, m=m, template=template,
                         params_of=picks.__getitem__, sampler=lambda rng: random_bits(rng, m))
    class_cap = data.draw(st.sampled_from((DEFAULT_CLASS_CAP, 4)), label="class_cap")
    return cls, draw_points(data, cls), class_cap


def draw_all_circuits_case(data):
    # Ckt(n, d, 400) at m <= 8: most short descriptions decode to no
    # circuit and give the zero member.
    n, d = data.draw(st.integers(1, 2), label="n"), data.draw(st.integers(1, 2), label="d")
    cls = all_circuits_class(n, d, 400, data.draw(st.integers(0, 8), label="m"))
    return cls, draw_points(data, cls), DEFAULT_CLASS_CAP


def draw_points(data, cls):
    q = 2 * cls.d * cls.n + data.draw(st.integers(0, 2), label="dq")
    coord = st.integers(0, q - 1)
    points = data.draw(st.lists(st.tuples(*[coord] * cls.n), max_size=3), label="points")
    return HittingSet(tuple(points), cls.n, q)


@pytest.mark.parametrize("draw_case", (draw_avoid_case, draw_template_case, draw_all_circuits_case))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_verify_once_per_member_matches_verifying_every_description(draw_case, seed, data):
    # A member the class owns is verified once per call; a repeat of it
    # has the same circuit and R, so the verdict, the member a Misses
    # verdict names and its witness are those of verifying every one.
    cls, h, class_cap = draw_case(data)
    kw = dict(seed=seed, class_cap=class_cap)
    verdict = verify_hitting_set(cls, h, **kw)
    assert verdict == verify_every_member(cls, h, **kw)
    if not verdict.hits:
        ckt, params = cls.decode(bits_to_int(map(int, verdict.x)))
        assert eval_gates(ckt, verdict.witness, params) != 0 and verdict.witness not in h.points


def count_witness_searches(monkeypatch):
    """The (circuit, R) of each find_small_witness call verify_hitting_set makes."""
    calls = []

    def counting(ckt, q, budget, rng, cap, params, first):
        calls.append((ckt, params))
        return find_small_witness(ckt, q, budget, rng, cap, params, first)

    monkeypatch.setattr(hitting_mod, "find_small_witness", counting)
    return calls


@pytest.mark.parametrize("values", ((3,), (0, 2), (1, 2, 3), (3, 0, 1, 2)))
def test_a_template_member_is_searched_once_per_distinct_r(monkeypatch, values):
    # 32 descriptions onto k values of R in p1 + p2*x1; H = {(1,)} hits
    # every R but 0, which vanishes, so no Misses verdict ends the loop.
    cls = DefinableClass(decoder=None, n=1, d=1, s=0, m=5, template=multilinear_class(1).template,
                         params_of=lambda x: values[x % len(values)])
    calls = count_witness_searches(monkeypatch)
    assert verify_hitting_set(cls, HittingSet(((1,),), 1, 2)) == HSVerdict(hits=True)
    assert sorted(params for _, params in calls) == sorted(values)


def test_the_zero_member_is_proven_vanishing_once_per_call(monkeypatch):
    cls = all_circuits_class(2, 2, 400, 8)
    zeros = sum(cls.decode(x)[0] is cls._zero for x in cls.descriptions())
    h = search_hitting_set(cls, 8, 17, seed=7)
    calls = count_witness_searches(monkeypatch)
    for call in (1, 2):
        assert verify_hitting_set(cls, h).hits
        assert sum(ckt is cls._zero for ckt, _ in calls) == call
    assert zeros > 100
    # Each other member is searched once: a decoder's circuits are fresh, so
    # none is skipped, and the zero member's one search raised ZeroOnCubeError.
    assert len(calls) == 2 * (256 - zeros + 1)


@pytest.mark.parametrize("brk", LINE_BREAKS.values(), ids=LINE_BREAKS)
def test_hitting_set_reader_ends_lines_at_newline_only(brk):
    # Two points joined by another line break are one line, refused.
    line = f"1,2{brk}3,0"
    with pytest.raises(PreconditionError) as exc:
        parse_hitting_set(f"0,0\n{line}\n", 2, 4)
    assert str(exc.value) == f"line 2: want comma-separated integers, got {line!r}"


@pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
def test_hitting_set_reader_strips_ascii_whitespace_only(space):
    # A line of other spaces is no blank line, and they do not surround a point.
    assert parse_hitting_set(" 1,2\t\r\n \f\n\v0, 3 \n", 2, 4).points == ((1, 2), (0, 3))
    for line in (f"{space}1,2{space}", f"1,2{space}", space):
        with pytest.raises(PreconditionError) as exc:
            parse_hitting_set(f"0,0\n{line}\n", 2, 4)
        assert str(exc.value) == f"line 2: want comma-separated integers, got {line!r}"
