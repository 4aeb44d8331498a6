"""Range avoidance: normalization, amplification, inversion, reduction."""

import dataclasses
import hashlib
import importlib
import re
from itertools import product

import pytest

from szpit.avoid import (
    AvoidInstance,
    AvoidSchedule,
    ExhaustiveOracle,
    _member_gates,
    _schedule_violations,
    amplify,
    avoid_via_hitting,
    build_avoid_class,
    desk_schedule,
    encode_hitting_set_bits,
    instance_from_bool_circuit,
    instance_from_tsv,
    invert_amplified,
    normalize,
    solution_set,
    solve_avoid_brute,
)
from szpit.boolfunc import BoolFunc, boolfunc_from_callable, int_to_bit_str, parse_bool_circuit
from szpit.circuit import PARAM, analyze_degrees
from szpit.config import DEFAULT_CLASS_CAP
from szpit.errors import (
    CapExceededError,
    DimensionMismatchError,
    InversionFailedError,
    OracleError,
    PreconditionError,
    StageError,
)
from szpit.evaluator import eval_gates
from szpit.hitting import HittingSet, bitlen, search_hitting_set
from szpit.rng import Rng

from helpers import LINE_BREAKS, SCRIPTS, SPACES, in_script, instance_to_tsv, members
from oracles import amplify_steps, call_per_bit, int_to_bits, triple_decode, triple_encode


def random_instance(rng, a, b=None):
    b = b if b is not None else 2 * a + rng.randint(0, 6)
    return AvoidInstance(a, b, tuple(rng.randint(1, b) for _ in range(a)))


# -- instances ---------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(PreconditionError):
        AvoidInstance(3, 5, (1, 2, 3))  # b < 2a
    with pytest.raises(PreconditionError):
        AvoidInstance(2, 4, (1, 5))  # value outside [b]


def test_tsv_roundtrip():
    inst = AvoidInstance(3, 6, (5, 1, 5))
    assert instance_from_tsv(instance_to_tsv(inst), b=6) == inst
    assert instance_from_tsv("1\t2\n2\t1\n").b == 4  # b defaults to 2a


@pytest.mark.parametrize("text", ["1\tx\n", "1\t2\n0x2\t1\n"])
def test_tsv_reader_names_the_line_of_a_bad_number(text):
    # int() alone would raise a bare ValueError naming neither the line
    # nor the file's format.
    line = text.count("\n")
    with pytest.raises(PreconditionError, match=f"^line {line}: want decimal x and f\\(x\\)"):
        instance_from_tsv(text)


def test_tsv_reader_skips_a_comment_only_line_and_counts_it():
    assert instance_from_tsv("# f on [2]\n1\t3\n  # x = 2 next\n2\t3\n", b=4).table == (3, 3)
    with pytest.raises(PreconditionError) as exc:
        instance_from_tsv("# nothing but a comment\n")
    assert str(exc.value) == "need b >= 2a >= 2, got a=0, b=0"


@pytest.mark.parametrize("text, message", [
    ("1\t2\t3\n", "line 1: want 'x<TAB>f(x)', got '1\\t2\\t3'"),
    ("1\t2\n# x = 1 again\n1\t3\n", "line 3: duplicate row for x=1"),
    ("1\t2\n3\t4\n", "table must cover x = 1..a densely"),
], ids=["three-columns", "duplicate-x", "gap"])
def test_tsv_reader_refusals(text, message):
    with pytest.raises(PreconditionError) as exc:
        instance_from_tsv(text)
    assert str(exc.value) == message


def test_instance_refusals_name_the_shape():
    with pytest.raises(DimensionMismatchError) as exc:
        AvoidInstance(2, 4, (1,))
    assert str(exc.value) == "table has 1 rows, want 2"
    one_input = parse_bool_circuit("g0 = var x1\noutput g0\n")
    with pytest.raises(DimensionMismatchError) as exc:
        instance_from_bool_circuit(one_input, 8, 16)
    assert str(exc.value) == "circuit has 1 inputs, want 3"
    with pytest.raises(CapExceededError) as exc:
        solve_avoid_brute(AvoidInstance(2, 4, (1, 1)), cap=1)
    assert str(exc.value) == "a=2 exceeds the cap 1"


def test_instance_from_bool_circuit():
    # f(x) = x on [4], as the identity on 2 bits.
    c = parse_bool_circuit("g0 = var x1\ng1 = var x2\noutput g0 g1\n")
    inst = instance_from_bool_circuit(c, 4, 8)
    assert inst.table == (1, 2, 3, 4)
    # f(x) = x2 x1 read as a number with x1 on top: 0, 2, 1, 3 on x = 0..3.
    swapped = parse_bool_circuit("g0 = var x1\ng1 = var x2\noutput g1 g0\n")
    assert instance_from_bool_circuit(swapped, 3, 6).table == (1, 3, 2)


def test_solve_brute_examples():
    assert solve_avoid_brute(AvoidInstance(2, 4, (1, 1))) == 2
    assert solve_avoid_brute(AvoidInstance(3, 6, (1, 2, 3))) == 4


# -- normalization -----------------------------------------------------------

def test_normalize_degenerate_a1():
    # f : [1] -> [b] hits one of the two values of [2]; the other bit
    # string backmaps to the free one.
    for fv in (1, 2, 3, 4):
        inst = AvoidInstance(1, 4, (fv,))
        g, backmap = normalize(inst)
        assert g.in_bits == 0 and g.out_bits == 1
        missing = [y for y in (0, 1) if y not in g.rows]
        assert len(missing) == 1
        assert backmap(missing[0]) not in inst.range_set()


def test_normalize_identity_a3():
    inst = AvoidInstance(3, 6, (1, 2, 3))
    g, backmap = normalize(inst)
    assert g.in_bits == 2 and g.out_bits == 3
    # Rows (f(x mod 3 + 1) - 1) mod 6 for x = 0..3.
    assert g.rows == (0, 1, 2, 0)
    for y in range(8):
        if y not in g.rows:
            assert backmap(y) in {4, 5, 6}


@pytest.mark.parametrize("v", [-1, 8, 1 << 70])
def test_backmap_refuses_a_string_outside_its_width(v):
    # m + 1 = 3 bits.  Unchecked, -1 would backmap to 0, outside [2a],
    # and 8 into the pool.
    _, backmap = normalize(AvoidInstance(3, 6, (1, 2, 3)))
    assert backmap(7) in {4, 5, 6}
    with pytest.raises(DimensionMismatchError, match=r"outside \[0, 2\^3\)"):
        backmap(v)


def test_normalize_constant_a4():
    inst = AvoidInstance(4, 8, (1, 1, 1, 1))
    g, backmap = normalize(inst)
    assert set(g.rows) == {0}
    for y in range(8):
        if y not in g.rows:
            assert backmap(y) != 1


def test_normalize_guarantee_exhaustive():
    # Every string outside range(g) backmaps outside range(f), for every
    # a <= 8 over assorted b and random tables.
    rng = Rng(401, "norm")
    for a in range(1, 9):
        for trial in range(8):
            r = rng.split(f"{a}:{trial}")
            b = min(32, 2 * a + r.randint(0, 16))
            inst = random_instance(r, a, b)
            g, backmap = normalize(inst)
            hit = inst.range_set()
            seen = set(g.rows)
            for y in range(1 << (a - 1).bit_length() + 1):
                if y not in seen:
                    out = backmap(y)
                    assert 1 <= out <= 2 * a
                    assert out not in hit


def test_normalize_wrap_soundness_on_representative_strings():
    # The mod-wrap argument itself: in-range values y with f-preimages are
    # always covered by g, so their representative strings never look free.
    rng = Rng(403, "wrap")
    for trial in range(30):
        r = rng.split(str(trial))
        inst = random_instance(r, r.randint(1, 8))
        g, _ = normalize(inst)
        for y in inst.range_set():
            if y <= 2 * inst.a:
                assert y - 1 in g.rows


# -- amplification -----------------------------------------------------------

def fixed_g_m2():
    # A fixed 4-row table {0,1}^2 -> {0,1}^3 used by the hand-unrolled test:
    # rows (1, 0, 1), (0, 1, 1), (1, 1, 0) and (0, 0, 0), LSB first.
    return BoolFunc(2, 3, (5, 6, 3, 0))


def test_amplify_t1_is_g():
    g = fixed_g_m2()
    assert amplify(g, 1) == g


def test_amplify_hand_unrolled():
    g = fixed_g_m2()
    h = amplify(g, 3)
    for v in range(4):
        x = int_to_bits(v, 2)
        h1 = call_per_bit(g, x)
        h2 = call_per_bit(g, h1[:2]) + h1[2:]
        h3 = call_per_bit(g, h2[:2]) + h2[2:]
        assert int_to_bits(h(v), 5) == h3
        assert len(h3) == 5


def test_amplify_prefix_property():
    # Tail bits persist: step i+1 keeps step i's stretch bits shifted by one.
    g = fixed_g_m2()
    for v in range(4):
        states = amplify_steps(g, int_to_bits(v, 2), 4)
        for i in range(len(states) - 1):
            assert states[i + 1][3:] == states[i][2:]


def test_amplify_step_claim():
    # If h_i(z) = y:v then h_{i+1}(z) = g(y):v, for all m <= 3, i <= 4.
    rng = Rng(405, "step")
    for m in (1, 2, 3):
        for trial in range(4):
            r = rng.split(f"{m}:{trial}")
            table = tuple(r.randrange(1 << (m + 1)) for _ in range(1 << m))
            g = BoolFunc(m, m + 1, table)
            for z in range(1 << m):
                states = amplify_steps(g, int_to_bits(z, m), 5)
                for i in range(5):
                    y, v = states[i][:m], states[i][m:]
                    assert states[i + 1] == call_per_bit(g, y) + v


def test_amplify_shape_checks():
    g = fixed_g_m2()
    with pytest.raises(PreconditionError):
        amplify(g, 0)
    square = BoolFunc(1, 1, (0, 1))
    with pytest.raises(Exception):
        amplify(square, 2)


# -- inversion ---------------------------------------------------------------

def test_invert_t1_returns_y():
    g = fixed_g_m2()
    outside = [y for y in range(8) if y not in g.rows]
    assert outside == [1, 2, 4, 7]
    for y in outside:
        assert invert_amplified(g, 1, y) == y


@pytest.mark.parametrize("t", [0, -1])
def test_invert_refuses_a_stretch_below_1(t):
    # Unchecked, t = 0 returned the width-m value (1, 0) for y = (1, 0),
    # and t = -1 returned (1,): neither is an (m+1)-bit string.
    with pytest.raises(PreconditionError, match="^t must be >= 1$"):
        invert_amplified(fixed_g_m2(), t, 0b01)


@pytest.mark.parametrize("y", [-1, 1 << 5, 1 << 70])
def test_invert_refuses_a_y_outside_its_width(y):
    # m + t = 5 bits at t = 3.
    with pytest.raises(DimensionMismatchError, match=r"outside \[0, 2\^5\)"):
        invert_amplified(fixed_g_m2(), 3, y)


def test_invert_soundness_exhaustive():
    # m <= 3, several t: every y outside range(h) inverts to a string
    # outside range(g); the planted-preimage case fails.
    rng = Rng(407, "invert")
    for m in (1, 2, 3):
        for t in (2, 3, 4):
            r = rng.split(f"{m}:{t}")
            table = tuple(r.randrange(1 << (m + 1)) for _ in range(1 << m))
            g = BoolFunc(m, m + 1, table)
            h = amplify(g, t)
            h_range, g_range = set(h.rows), set(g.rows)
            for y in range(1 << (m + t)):
                if y in h_range:
                    continue
                out = invert_amplified(g, t, y)
                assert 0 <= out < 1 << (m + 1)
                assert out not in g_range


def test_invert_planted_preimage_fails():
    # g(x) = x:0 makes the walk circle back into range(g) forever, so a y
    # inside range(h) is detected and the procedure fails.
    m, t = 2, 3
    g = boolfunc_from_callable(lambda x: x, m, m + 1)
    h = amplify(g, t)
    y = h(0b01)
    with pytest.raises(InversionFailedError):
        invert_amplified(g, t, y)


def test_invert_refuses_a_walk_witness_with_a_non_bit():
    # A witness outside [0, 2^m) is no m-bit string, and g must refuse it.
    # Read unchecked, w = -1 and w = -4 would give the rows at 3 and 0,
    # which equal y_0 = y mod 8; the chain's end w | 1 << 2 = w would then
    # pass, have no preimage and come back as the answer.  w = 4 would
    # raise an IndexError.
    for w, y in ((-1, 0b1000), (-4, 0b1101), (4, 0b1101)):

        class LyingOracle(ExhaustiveOracle):
            def longest_walk(self, g, y, t):
                return 1, [y & 0b111, w | 0b100], [w]

        with pytest.raises(DimensionMismatchError, match=r"input .* outside \[0, 2\^2\)"):
            invert_amplified(fixed_g_m2(), 2, y, LyingOracle())


class LyingOracle(ExhaustiveOracle):
    """The exhaustive oracle with one answer replaced."""

    def __init__(self, walk=None, preimage=None):
        super().__init__()
        self.walk, self.lie = walk, preimage

    def longest_walk(self, g, y, t):
        return self.walk if self.walk else super().longest_walk(g, y, t)

    def preimage(self, g, target):
        return self.lie if self.lie is not None else super().preimage(g, target)


# Rows 5, 6, 3, 0; y = 0b00101 at t = 3 has y_0 = 5 = g(0), and y's tail
# bits 3 and 4 are 0, so the honest walk's next value is 0 = g(3).
@pytest.mark.parametrize("walk, message", [
    ((1, [0b101], []), "walk witness has the wrong shape"),  # k + 1 values wanted
    ((0, [0b101], [0]), "walk witness has the wrong shape"),  # k witnesses wanted
    ((0, [0b100], []), "walk witness has the wrong shape"),  # y_0 is not y's low bits
    ((1, [0b101, 0b001], [1]), "walk witness fails re-verification at step 0"),  # g(1) = 6
    ((1, [0b101, 0b100], [0]), "walk witness fails re-verification at step 0"),  # y_1 != w_0
    ((2, [0b101, 0b000, 0b001], [0, 3]), "walk witness fails re-verification at step 1"),
])
def test_invert_re_verifies_the_walk_witness(walk, message):
    with pytest.raises(OracleError, match=f"^{message}$"):
        invert_amplified(fixed_g_m2(), 3, 0b00101, LyingOracle(walk=walk))
    # The honest walk passes every check.
    assert LyingOracle().longest_walk(fixed_g_m2(), 0b00101, 3) == (2, [5, 0, 3], [0, 3])


def test_invert_re_verifies_the_preimage_witness():
    # y = 1 is no row of g, so at t = 1 the walk stops at y_0 = 1; a
    # preimage w = 0 is refused, since g(0) = 5.
    g = fixed_g_m2()
    assert invert_amplified(g, 1, 1, LyingOracle()) == 1
    with pytest.raises(OracleError, match="^preimage witness fails re-verification$"):
        invert_amplified(g, 1, 1, LyingOracle(preimage=0))


@pytest.mark.parametrize("g", [BoolFunc(2, 2, (0, 1, 2, 3)), BoolFunc(1, 3, (0, 7))])
def test_invert_refuses_a_g_that_does_not_stretch_by_one_bit(g):
    with pytest.raises(DimensionMismatchError, match="^g must stretch by one bit$"):
        invert_amplified(g, 2, 0)


def test_exhaustive_oracle_walk_is_length_maximal():
    g = fixed_g_m2()
    h = amplify(g, 3)
    oracle = ExhaustiveOracle()
    for y in range(1 << 5):
        if y in h.rows:
            continue
        k, ys, ws = oracle.longest_walk(g, y, 3)
        assert k <= 2 and len(ys) == k + 1 and len(ws) == k
        for j in range(k):
            assert g(ws[j]) == ys[j]


def test_exhaustive_oracle_preimage_checks_the_target_width():
    # Rows 5, 6, 3, 0: 5 has preimage 0, 0 has preimage 3, and 7 none.
    # A target outside [0, 8), such as 5 with a fourth bit set or 5 - 8,
    # is no row, so it has no preimage either.
    g, oracle = fixed_g_m2(), ExhaustiveOracle()
    assert oracle.preimage(g, 0b101) == 0
    assert oracle.preimage(g, 0) == 3
    for target in [7, 5 | 1 << 3, 5 - 8, -1, 1 << 70]:
        assert oracle.preimage(g, target) is None


# -- triple index ------------------------------------------------------------

def test_triple_extremes():
    assert triple_encode(1, 1, 1, 3, 2, 4) == 1
    assert triple_encode(3, 2, 4, 3, 2, 4) == 24


def test_triple_roundtrip_exhaustive():
    r, n, w = 3, 2, 4
    for i, j, k in product(range(1, r + 1), range(1, n + 1), range(1, w + 1)):
        assert triple_decode(triple_encode(i, j, k, r, n, w), r, n, w) == (i, j, k)
    with pytest.raises(PreconditionError):
        triple_encode(4, 1, 1, 3, 2, 4)
    with pytest.raises(PreconditionError):
        triple_decode(25, r, n, w)


# -- schedules and the compression class --------------------------------------

def test_desk_schedule_inequalities():
    for m in range(0, 6):
        s = desk_schedule(m)
        w = bitlen(s.q)
        assert s.q >= 2 * s.d * s.n
        assert s.d >= 2 * s.r * w
        assert s.r > m + s.n * w
        assert s.t_prime >= s.r * s.n * w
        assert not _schedule_violations(s)
        assert s.to_json() == {"mode": "desk", **vars(s), "violations": []}


def asymptotic_schedule(m):
    """The paper's asymptotic choice n = m, d = m^2, r = 4m|m|, q = 2m^3, t' = m^3."""
    q = 2 * m**3
    return AvoidSchedule(m, m, m * m, q, 4 * m * bitlen(m), bitlen(q), t_prime=m**3)


def test_avoid_class_refuses_the_asymptotic_schedule_at_small_m():
    # Every m the class cap admits violates the asymptotic choice, t' >= rn|q|
    # and d >= 2r|q| among the rest, which is why the pipeline runs
    # desk_schedule; build_avoid_class refuses such a hand-built schedule.
    h = amplify(boolfunc_from_callable(lambda v: v, 1, 2), 1)  # refused before it is read
    for m in range(1, 17):
        violations = _schedule_violations(asymptotic_schedule(m))
        assert any(v.startswith("t' >= r*n*|q| fails") for v in violations), m
        assert any(v.startswith("d >= 2r|q| fails") for v in violations), m
        with pytest.raises(PreconditionError, match="^schedule violates: t' >= r"):
            build_avoid_class(h, asymptotic_schedule(m))
    # The asymptotic choice does satisfy everything once m is large.
    assert not _schedule_violations(asymptotic_schedule(4096))


@pytest.mark.parametrize("change, message", [
    (lambda s: {"q": s.q // 2}, "q >= 2dn fails: 2047 < 2592"),
    (lambda s: {"r": s.m + s.n * s.w}, "r > m + n|q| fails: 26 <= 26"),
])
def test_avoid_class_refuses_a_schedule_naming_each_failed_inequality(change, message):
    # desk_schedule(2) is m = 2, n = 2, d = 648, q = 4095 (w = 12), r = 27.
    sched = desk_schedule(2)
    bad = dataclasses.replace(sched, **change(sched))
    assert _schedule_violations(bad) == (message,)
    h = amplify(boolfunc_from_callable(lambda v: v, 2, 3), sched.t_prime - 2)
    with pytest.raises(PreconditionError, match=f"^schedule violates: {re.escape(message)}$"):
        build_avoid_class(h, bad)


def test_avoid_class_refuses_an_h_of_the_wrong_shape():
    sched = desk_schedule(2)
    width = sched.r * sched.n * sched.w
    g = boolfunc_from_callable(lambda v: v, 2, 3)
    build_avoid_class(amplify(g, width - 2), sched)  # h's rows are exactly r*n*w bits
    with pytest.raises(PreconditionError) as exc:
        build_avoid_class(amplify(g, width - 3), sched)
    assert str(exc.value) == f"t' >= r*n*|q| fails: {width - 1} < {width}"
    wide = amplify(boolfunc_from_callable(lambda v: v, 3, 4), width - 3)
    with pytest.raises(DimensionMismatchError, match="^h has 3 input bits, want 2$"):
        build_avoid_class(wide, sched)


def test_template_params_are_numbered_in_triple_order():
    # The template numbers its params as it builds them, in (i, j, k) loop
    # order, which is the triple index: the k-th param gate met inside the
    # j-th coordinate of the i-th factor is p_e, e = triple_encode(i, j, k).
    for m in (0, 3, 7):
        sched = desk_schedule(m)
        r, n, w = sched.r, sched.n, sched.w
        numbers = [g.name for g in _member_gates(sched).gates if g.op == PARAM]
        want = [triple_encode(i, j, k, r, n, w) for i, j, k in
                product(range(1, r + 1), range(1, n + 1), range(1, w + 1))]
        assert numbers == want == list(range(1, r * n * w + 1))


def build_small_class(m=2, seed=11):
    rng = Rng(seed, "avoid-class")
    inst = random_instance(rng, 1 << (m - 1) if m else 1)
    g, _ = normalize(inst)
    sched = desk_schedule(g.in_bits)
    h = amplify(g, sched.t_prime - g.in_bits)
    return inst, g, sched, h, build_avoid_class(h, sched)


def test_avoid_class_params_are_h_bits_packed():
    # Member x's packed params are the int of h(x)'s first r*n*w bits,
    # bit e - 1 for param p_e; h's rows are those ints in full.
    for m in (1, 2, 3):
        _, _, sched, h, cls = build_small_class(m=m)
        width = sched.r * sched.n * sched.w
        for x in range(1 << h.in_bits):
            assert cls.params_of(x) == h(x) & ((1 << width) - 1)
            assert cls.decode(x) == (cls.template, cls.params_of(x))


def test_avoid_class_degree_audit():
    _, _, sched, _, cls = build_small_class(m=2)
    for x, member in members(cls):
        rep = analyze_degrees(member)
        for j in range(1, sched.n + 1):
            assert rep.individual[f"x{j}"] == 2 * sched.r
        assert rep.max_individual <= sched.d


def test_avoid_class_positivity():
    _, _, sched, _, cls = build_small_class(m=2)
    point = (2 * sched.q,) * sched.n
    for x, member in members(cls):
        assert eval_gates(member, point) > 0


def test_avoid_class_vanishes_on_encoded_points():
    _, _, sched, h, cls = build_small_class(m=2)
    for x, member in members(cls):
        bits = int_to_bits(h(x), h.out_bits)
        for i in range(1, sched.r + 1):
            point = tuple(
                sum(
                    bits[triple_encode(i, j, k, sched.r, sched.n, sched.w) - 1] << (k - 1)
                    for k in range(1, sched.w + 1)
                )
                for j in range(1, sched.n + 1)
            )
            assert eval_gates(member, point) == 0


def test_avoid_class_member_size_is_declared():
    _, _, sched, _, cls = build_small_class(m=2)
    for x, member in members(cls):
        assert len(member.gates) <= cls.s


def test_encoded_hitting_set_outside_h_range():
    # The compression argument, run forward on a real hitting set.
    _, g, sched, h, cls = build_small_class(m=2)
    h_set = search_hitting_set(cls, sched.q, sched.r, seed=3)
    y = encode_hitting_set_bits(h_set, sched, h.out_bits)
    assert y.__class__ is int and 0 <= y < 1 << h.out_bits
    assert all(h(x) != y for x in range(1 << h.in_bits))


# -- end to end ----------------------------------------------------------------

def test_avoid_examples():
    v = avoid_via_hitting(AvoidInstance(2, 4, (3, 3)), seed=1).value
    assert v in {1, 2, 4}
    v = avoid_via_hitting(AvoidInstance(4, 8, (1, 2, 3, 4)), seed=1).value
    assert v in {5, 6, 7, 8}


def test_avoid_end_to_end_random():
    rng = Rng(409, "end2end")
    for trial in range(12):
        r = rng.split(str(trial))
        inst = random_instance(r, r.randint(1, 16))
        result = avoid_via_hitting(inst, seed=trial)
        assert result.value in solution_set(inst)
        assert result.trace["value"] == result.value
        assert result.trace["schedule"]["mode"] == "desk"


def test_avoid_trace_stages():
    result = avoid_via_hitting(AvoidInstance(3, 7, (2, 2, 7)), seed=5)
    trace = result.trace
    for key in ("g_digest", "schedule", "class_size", "hitting_set", "y",
                "inversion_walk", "inversion_output", "value"):
        assert key in trace
    assert trace["inversion_walk"]["chain"][-1] == trace["inversion_output"]
    assert trace["class_size"] == 4
    assert len(trace["y"]) == trace["schedule"]["t_prime"]


def test_avoid_stage_provenance():
    def broken_solver(cls):
        raise ValueError("boom")

    with pytest.raises(StageError) as exc:
        avoid_via_hitting(AvoidInstance(2, 4, (1, 2)), hs_solver=broken_solver, seed=1)
    assert exc.value.stage == "hitting-set"


def test_stage_keeps_its_name_and_cause_and_passes_interrupts():
    def failing(exc):
        def solver(cls):
            raise exc
        return solver

    boom = ValueError("boom")
    with pytest.raises(StageError) as caught:
        avoid_via_hitting(AvoidInstance(2, 4, (1, 2)), hs_solver=failing(boom), seed=1)
    assert caught.value.stage == "hitting-set"
    assert caught.value.cause is boom and caught.value.__cause__ is boom
    interrupt = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt) as caught:
        avoid_via_hitting(AvoidInstance(2, 4, (1, 2)), hs_solver=failing(interrupt), seed=1)
    assert caught.value is interrupt


def test_g_digest_is_the_per_row_bit_string_join(monkeypatch):
    # Random tables at m = 0..6, rows with a top bit set included, stand in
    # for normalize's g; the instance's range is {1}, so backmap's answer 2
    # passes the final check.
    avoid_mod = importlib.import_module("szpit.avoid")
    rng = Rng(2701, "g-digest")
    for m in range(7):
        for _ in range(3):
            g = BoolFunc(m, m + 1, tuple(rng.randrange(1 << (m + 1)) for _ in range(1 << m)))
            monkeypatch.setattr(avoid_mod, "normalize", lambda inst, g=g: (g, lambda y: 2))
            inst = AvoidInstance(1 << m, 2 << m, (1,) * (1 << m))
            trace = avoid_via_hitting(inst, seed=m).trace
            text = "".join(int_to_bit_str(row, m + 1) for row in g.rows)
            assert trace["g_digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_over_cap_instance_is_refused_before_normalize(monkeypatch):
    # a = 2^16 + 1 needs m = 17 description bits, so the default search's
    # class would have 2^17 members, past the cap.  The refusal comes before
    # normalize tabulates g or amplify stretches it; a caller's own solver
    # is not bound by the class cap, and a = 2^16 is within it, so both of
    # those reach normalize.
    avoid_mod = importlib.import_module("szpit.avoid")

    def not_run(*args, **kw):
        raise AssertionError("not_run ran")

    monkeypatch.setattr(avoid_mod, "normalize", not_run)
    monkeypatch.setattr(avoid_mod, "amplify", not_run)
    a = (1 << 16) + 1
    over = AvoidInstance(a, 2 * a, (1,) * a)
    with pytest.raises(StageError) as exc:
        avoid_via_hitting(over, seed=0)
    assert exc.value.stage == "class-cap"
    assert isinstance(exc.value.cause, CapExceededError)
    assert str(exc.value.cause) == (
        f"2^m = {1 << 17} exceeds the class cap {DEFAULT_CLASS_CAP} and the "
        "class supplies no membership sampler"
    )
    at_cap = AvoidInstance(a - 1, 2 * (a - 1), (1,) * (a - 1))
    for inst, solver in ((over, lambda cls: None), (at_cap, None)):
        with pytest.raises(StageError, match="not_run ran") as exc:
            avoid_via_hitting(inst, hs_solver=solver, seed=0)
        assert exc.value.stage == "normalize"


def test_compression_check_refuses_an_encoding_in_range_of_h():
    # A solver that returns the r points spelled by h(x) makes y = h(x),
    # which the compression check must refuse before inverting.
    inst = AvoidInstance(2, 4, (1, 2))
    g, _ = normalize(inst)
    sched = desk_schedule(g.in_bits)
    h = amplify(g, sched.t_prime - g.in_bits)
    bits = int_to_bits(h((1 << g.in_bits) - 1), h.out_bits)
    points = tuple(
        tuple(
            sum(
                bits[triple_encode(i, j, k, sched.r, sched.n, sched.w) - 1] << (k - 1)
                for k in range(1, sched.w + 1)
            )
            for j in range(1, sched.n + 1)
        )
        for i in range(1, sched.r + 1)
    )
    spelled = HittingSet(points, sched.n, sched.q)
    assert encode_hitting_set_bits(spelled, sched, h.out_bits) == h((1 << g.in_bits) - 1)
    with pytest.raises(StageError) as exc:
        avoid_via_hitting(inst, hs_solver=lambda cls: spelled, seed=1)
    assert exc.value.stage == "compression-check"


def test_pigeonhole_always_solvable():
    # f : [a] -> [b] covers at most a < b values, so a solution exists and
    # brute search never raises; degenerate a=1 frees one of two values.
    rng = Rng(411, "pigeon")
    for trial in range(20):
        r = rng.split(str(trial))
        inst = random_instance(r, r.randint(1, 16))
        assert solve_avoid_brute(inst) in solution_set(inst)
    inst = AvoidInstance(1, 2, (2,))
    assert solve_avoid_brute(inst) == 1


def test_avoid_class_member_matches_direct_formula():
    # Evaluate the built circuit against the product-of-sums-of-squares
    # formula computed directly from the h-bits, at random points.
    _, _, sched, h, cls = build_small_class(m=2)
    rng = Rng(413, "formula")
    for x, member in members(cls):
        bits = int_to_bits(h(x), h.out_bits)
        targets = [
            [
                sum(
                    bits[triple_encode(i, j, k, sched.r, sched.n, sched.w) - 1]
                    << (k - 1)
                    for k in range(1, sched.w + 1)
                )
                for j in range(1, sched.n + 1)
            ]
            for i in range(1, sched.r + 1)
        ]
        for _ in range(4):
            z = tuple(rng.randint(-sched.q, sched.q) for _ in range(sched.n))
            want = 1
            for i in range(sched.r):
                want *= sum((z[j] - targets[i][j]) ** 2 for j in range(sched.n))
            assert eval_gates(member, z) == want


def test_avoid_with_large_codomain():
    # b far above 2a: values outside [2a] wrap harmlessly through the
    # normalization, and the answer still lands in [2a].
    rng = Rng(417, "big-b")
    inst = AvoidInstance(9, 10**6, tuple(rng.randint(1, 10**6) for _ in range(9)))
    result = avoid_via_hitting(inst, seed=2)
    assert 1 <= result.value <= 18
    assert result.value in solution_set(inst)


def test_amplify_matches_the_round_by_round_definition():
    # Criterion-8 sizes: every x for m <= 3, stretches up to 5 rounds.
    rng = Rng(419, "amplify-steps")
    for m in (1, 2, 3):
        for trial in range(4):
            r = rng.split(f"{m}:{trial}")
            g = BoolFunc(m, m + 1, tuple(r.randrange(1 << (m + 1)) for _ in range(1 << m)))
            for t in range(1, 6):
                h = amplify(g, t)
                for x in range(1 << m):
                    assert int_to_bits(h(x), m + t) == amplify_steps(g, int_to_bits(x, m), t)[-1]


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
def test_tsv_reader_reads_ascii_integers_only(script):
    # Signs and spaces read as int() reads them; another script's digits,
    # or a "_" separator, are refused as any other bad number is.
    assert instance_from_tsv(" +1 \t 3\n2\t+4\n", b=10).table == (3, 4)
    for text, lineno in ((in_script("1\t3\n2\t10\n", script), 1), ("1\t3\n2\t1_0\n", 2)):
        line = text.splitlines()[lineno - 1]
        with pytest.raises(PreconditionError) as exc:
            instance_from_tsv(text, b=10)
        assert str(exc.value) == f"line {lineno}: want decimal x and f(x), got {line!r}"


@pytest.mark.parametrize("brk", LINE_BREAKS.values(), ids=LINE_BREAKS)
def test_tsv_reader_ends_lines_at_newline_only(brk):
    # Two rows joined by another line break are one line of more than two
    # columns, refused.
    line = f"2\t4{brk}3\t1"
    with pytest.raises(PreconditionError) as exc:
        instance_from_tsv(f"1\t3\n{line}\n", b=10)
    assert str(exc.value) == f"line 2: want 'x<TAB>f(x)', got {line!r}"


@pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
def test_tsv_reader_splits_and_strips_ascii_whitespace_only(space):
    # Runs of ASCII whitespace separate and surround the two columns; any
    # other space is part of a column, refused as any other bad column is.
    assert instance_from_tsv(" 1 \t 3\r\n\t2 \t4 # f(2)\n", b=10).table == (3, 4)
    for text, lineno, want in (
        (f"1\t3\n2{space}4\n", 2, "want 'x<TAB>f(x)'"),
        (f"{space}1\t3\n2\t4\n", 1, "want decimal x and f(x)"),
        (f"1\t3{space}\n2\t4\n", 1, "want decimal x and f(x)"),
    ):
        with pytest.raises(PreconditionError) as exc:
            instance_from_tsv(text, b=10)
        assert str(exc.value) == f"line {lineno}: {want}, got {text.splitlines()[lineno - 1]!r}"
