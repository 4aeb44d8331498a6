"""Hitting sets: witnesses, verification, search, the non-range criterion."""

import pytest
from hypothesis import given, settings, strategies as st

from szpit.circuit import Gate, circuit
from szpit.classes import linear_class, monomial_class, multilinear_class
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

from helpers import g_map, random_bits
from oracles import nonrange_by_tuples, verify_witness_first


def product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def singleton_class(ckt, n, d, s=4096):
    return DefinableClass(decoder=lambda x: ckt, n=n, d=d, s=s, m=0)


def test_find_small_witness_product():
    w = find_small_witness(product_circuit(), 2, 1, 4, rng=Rng(3, "w"))
    assert w[0] in (1, 2, 3) and w[1] in (1, 2, 3)


def test_find_small_witness_zero_circuit():
    with pytest.raises(ZeroOnCubeError) as exc:
        find_small_witness(zero_circuit(1), 1, 1, 4, budget=10, rng=Rng(3, "w"))
    assert exc.value.trials == 10


def test_find_small_witness_constant_one():
    c = circuit([Gate.var(1), Gate.const(0), Gate.mul(0, 1), Gate.const(1), Gate.add(2, 3)])
    assert find_small_witness(c, 1, 1, 4, rng=Rng(3, "w")) is not None


def test_find_small_witness_requires_large_q():
    with pytest.raises(PreconditionError):
        find_small_witness(product_circuit(), 2, 1, 3)


def test_find_small_witness_tries_first_in_order_before_any_draw():
    h = HittingSet(((0, 1), (2, 3), (1, 1)), 2, 4)
    rng = Rng(3, "w")
    assert find_small_witness(product_circuit(), 2, 1, 4, budget=0, rng=rng, cap=0, first=h) == (2, 3)
    assert "_random" not in vars(rng)  # the stream was never drawn from


def test_find_small_witness_draws_only_after_first_zeroes():
    # Every point of first is a root, so the witness is the stream's.
    h = HittingSet(((0, 1), (3, 0)), 2, 4)
    got = find_small_witness(product_circuit(), 2, 1, 4, rng=Rng(3, "w"), first=h)
    assert got == find_small_witness(product_circuit(), 2, 1, 4, rng=Rng(3, "w"))
    assert got not in h.points


@pytest.mark.parametrize("n, q", [(1, 4), (3, 6), (2, 5)])
def test_find_small_witness_refuses_a_first_of_other_n_or_q(n, q):
    first = HittingSet(((1,) * n,), n, q)
    with pytest.raises(DimensionMismatchError):
        find_small_witness(product_circuit(), 2, 1, 4, first=first)


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
    member, params = cls.decode("0")
    assert all(eval_gates(member, (u,), params) == 0 for u in range(4))


@pytest.mark.parametrize("m, x", [(3, "0a1"), (3, "01 "), (3, " 01"), (3, "2"), (0, "0")])
def test_decode_refuses_a_description_that_is_not_a_bitstring(m, x):
    cls = DefinableClass(decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m)
    want = f"description {x!r} is not a bitstring of length {m}"
    with pytest.raises(PreconditionError) as err:
        cls.decode(x)
    assert str(err.value) == want


@pytest.mark.parametrize("m, x", [(3, "010"), (3, "111"), (0, "")])
def test_decode_takes_every_bitstring_of_length_m(m, x):
    cls = DefinableClass(decoder=lambda x: product_circuit(), n=2, d=1, s=4096, m=m)
    assert cls.decode(x) == (product_circuit(), 0)


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
            h = HittingSet(tuple(rng.point(cls.n, q) for _ in range(r)), cls.n, q)
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
        points = tuple(rng.point(2, 8) for _ in range(13))
        if verify_hitting_set(cls, HittingSet(points, 2, 8)).hits:
            hits += 1
    assert hits / draws >= 0.4


def test_hitting_set_text_roundtrip():
    h = HittingSet(((1, 2), (3, 0)), 2, 4)
    text = serialize_hitting_set(h)
    assert text == "1,2\n3,0\n"
    assert parse_hitting_set(text, 2, 4) == h


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


def test_nonrange_degenerate_empty_sequence():
    # r = 0: the image of the empty-tuple map is {()}, so the empty H is
    # always inside it.
    cls = monomial_class(2)
    h = HittingSet((), 2, 4)
    assert nonrange_is_hitting(cls, h) is False


def _small_decoder(x: str):
    """Four shapes at n = 2, d = 1: a product, a sum plus 1, x1 - x1 (a
    nonzero circuit of the zero polynomial), and x1^2 (degree 2, so the
    class replaces it by the constant-0 member)."""
    g = [Gate.var(1), Gate.var(2)]
    shape = int(x, 2) % 4
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
        ckt, params = cls.decode(verdict.x)
        assert eval_gates(ckt, verdict.witness, params) != 0
        assert verdict.witness not in h.points
