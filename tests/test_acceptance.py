"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its wall-clock time.  Every expected value is either derived
by an independent oracle in this file or exhaustively enumerated.
"""

import time
from itertools import product

from szpit.avoid import (
    AvoidInstance,
    amplify,
    avoid_via_hitting,
    build_avoid_class,
    desk_schedule,
    invert_amplified,
    normalize,
    solution_set,
)
from szpit.boolfunc import BoolFunc
from szpit.circuit import analyze_degrees
from szpit.codec import SZContext, all_codes, count_roots_brute, cube_roots, decode_code, encode_root
from szpit.errors import ZeroOnCubeError
from szpit.evaluator import eval_arithmetic, eval_gates
from szpit.classes import linear_class, monomial_class, multilinear_class
from szpit.hitting import (
    HittingSet,
    bitlen,
    find_small_witness,
    largeness_holds,
    nonrange_is_hitting,
    verify_hitting_set,
)
from szpit.pit import NONZERO, pit_cube_brute, pit_random
from szpit.rng import Rng
from szpit.unipoly import UniPoly, enumerate_roots, eval_unipoly, extract_unipoly

from genckt import random_circuit_bounded
from helpers import bit_complexity, members
from oracles import amplify_steps, call_per_bit, int_to_bits


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s) - {label}")


def test_criterion_1_root_count_bound():
    started = time.time()
    rng = Rng(1001, "c1")
    checked = 0
    for attempt in range(5000):
        if checked >= 500:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=5)
        if c is None:
            continue
        d = max(1, analyze_degrees(c).max_individual)
        q = r.randint(2, 8)
        try:
            # The witness cube must satisfy q >= 2dn; the count bound is
            # then checked at the stated q, whose premise (a non-root
            # exists in Z^n) the witness certifies.
            find_small_witness(c, n, d, max(q, 2 * d * n), rng=r.split("w"))
        except ZeroOnCubeError:
            continue
        checked += 1
        assert count_roots_brute(c, n, q) <= d * n * q ** (n - 1)
    assert checked >= 500
    _report(1, f"root-count bound on {checked} circuits", started, 10)


def test_criterion_2_roundtrip_and_surjectivity():
    started = time.time()
    rng = Rng(1002, "c2")
    checked = 0
    for attempt in range(2000):
        if checked >= 100:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=6)
        if c is None:
            continue
        d = max(1, analyze_degrees(c).max_individual)
        q = r.randint(2, 8)
        try:
            a = find_small_witness(c, n, d, max(q, 2 * d * n), rng=r.split("w"))
        except ZeroOnCubeError:
            continue
        checked += 1
        ctx = SZContext(c, n, d, q, a)
        roots = set(cube_roots(c, n, q))
        for b in roots:
            assert decode_code(ctx, encode_root(ctx, b)) == b
        image = {decode_code(ctx, code) for code in all_codes(n, d, q)}
        assert roots <= image
    assert checked >= 100
    _report(2, f"encode/decode round-trip + surjectivity on {checked} circuits", started, 30)


def test_criterion_3_fta_half():
    started = time.time()
    rng = Rng(1003, "c3")
    checked = 0
    while checked < 1000:
        r = rng.split(str(checked))
        d = r.randint(1, 8)
        q = r.randint(1, 64)
        p = UniPoly(tuple(r.randint(-100, 100) for _ in range(d + 1)))
        if p.is_zero:
            continue
        checked += 1
        listed = enumerate_roots(p, q)
        assert len(listed) == d
        real = [v for v in listed if v < q]
        brute = [u for u in range(q) if eval_unipoly(p, u) == 0]
        assert real == brute
        assert len(real) <= d
        assert all(v == q for v in listed[len(real):])
    _report(3, f"root enumeration equals brute scan on {checked} polynomials", started, 5)


def test_criterion_4_extraction_soundness_and_bits():
    started = time.time()
    s_cap, d_cap = 64, 16
    rng = Rng(1004, "c4")
    checked = 0
    for attempt in range(5000):
        if checked >= 500:
            break
        r = rng.split(str(attempt))
        c = random_circuit_bounded(
            r, n_vars=1, max_individual=d_cap, extra_gates=r.randint(1, 20),
            const_bits=s_cap, require_nonzero_degree=False,
        )
        if c is None:
            continue
        checked += 1
        p = extract_unipoly(c, d_cap)
        # Pointwise agreement at d+1 = 17 distinct points: enough to pin a
        # degree-<=16 polynomial, and literally what is tested.
        total = analyze_degrees(c).total
        for u in range(-8, 9):
            assert eval_unipoly(p, u) == eval_arithmetic(c, (u,), total)
        # Coefficient bit bound with the regime caps for s and d; the
        # growth recurrence runs over the total syntactic degree, in which
        # constant inputs count.
        d_u = analyze_degrees(c).total
        assert bit_complexity(p) <= (s_cap + bitlen(d_cap + 1)) * (2 * max(d_u, 1) - 1)
    assert checked >= 500
    _report(4, f"coefficient extraction on {checked} univariate circuits", started, 10)


def test_criterion_5_single_sample_density():
    started = time.time()
    rng = Rng(1005, "c5")
    successes = trials = 0
    for attempt in range(2000):
        if trials >= 100:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=5)
        if c is None:
            continue
        if pit_cube_brute(c).kind != NONZERO:
            continue
        trials += 1
        if pit_random(c, trials=1, seed=attempt).kind == NONZERO:
            successes += 1
    assert trials >= 100
    assert successes / trials >= 0.4
    _report(5, f"single-sample non-root rate {successes}/{trials}", started, 10)


def test_criterion_6_hitting_set_density_and_largeness():
    started = time.time()
    m, n, d, q, r_points = 4, 2, 2, 8, 13
    assert r_points > m + n * bitlen(q)
    assert largeness_holds(n=n, d=d, q=q, r=r_points, m=m)
    cls = multilinear_class(n, d=d)
    assert cls.m == m
    rng = Rng(1006, "c6")
    hits = 0
    draws = 200
    for i in range(draws):
        dr = rng.split(str(i))
        h = HittingSet(tuple(dr.point(n, q) for _ in range(r_points)), n, q)
        if verify_hitting_set(cls, h).hits:
            hits += 1
    assert hits / draws >= 0.4
    _report(6, f"uniform draws verified {hits}/{draws}; largeness exact", started, 60)


def test_criterion_7_nonrange_implies_hitting():
    started = time.time()
    q = 4
    implications = 0
    for cls in (monomial_class(2), linear_class(2)):
        assert cls.d == 1 and cls.m <= 2
        for point in product(range(q), repeat=2):
            h = HittingSet((point,), 2, q)
            if nonrange_is_hitting(cls, h):
                implications += 1
                assert verify_hitting_set(cls, h).hits
    assert implications > 0
    _report(7, f"non-range => hitting on {implications} exhaustive instances", started, 30)


def test_criterion_8_appendix_pipeline():
    started = time.time()
    rng = Rng(1008, "c8")
    # Normalization guarantee, exhaustively in y-bar, for a <= 8, b <= 32:
    # the three fixed shapes plus random tables.
    fixed = [
        AvoidInstance(1, 4, (3,)),
        AvoidInstance(3, 6, (1, 2, 3)),
        AvoidInstance(4, 8, (1, 1, 1, 1)),
    ]
    instances = list(fixed)
    for a in range(1, 9):
        for trial in range(6):
            r = rng.split(f"norm{a}:{trial}")
            b = min(32, 2 * a + r.randint(0, 16))
            instances.append(
                AvoidInstance(a, b, tuple(r.randint(1, b) for _ in range(a)))
            )
    for inst in instances:
        g, backmap = normalize(inst)
        hit = inst.range_set()
        seen = set(g.rows)
        for y in range(1 << g.out_bits):
            if y not in seen:
                out = backmap(y)
                assert 1 <= out <= 2 * inst.a and out not in hit

    # Amplification step claim, exhaustive for m <= 3, i <= 4.
    for m in (1, 2, 3):
        for trial in range(4):
            r = rng.split(f"ampl{m}:{trial}")
            g = BoolFunc(m, m + 1, tuple(r.randrange(1 << (m + 1)) for _ in range(1 << m)))
            for z in range(1 << m):
                states = amplify_steps(g, int_to_bits(z, m), 4)
                for i in range(4):
                    y, v = states[i][:m], states[i][m:]
                    assert states[i + 1] == call_per_bit(g, y) + v

    # Inversion soundness, exhaustive for m <= 3.
    for m in (1, 2, 3):
        for trial in range(3):
            r = rng.split(f"inv{m}:{trial}")
            g = BoolFunc(m, m + 1, tuple(r.randrange(1 << (m + 1)) for _ in range(1 << m)))
            t = r.randint(2, 4)
            h = amplify(g, t)
            h_range, g_range = set(h.rows), set(g.rows)
            for y in range(1 << (m + t)):
                if y in h_range:
                    continue
                assert invert_amplified(g, t, y) not in g_range
    _report(8, "normalization, amplification, inversion all exhaustive", started, 60)


def test_criterion_9_end_to_end_reduction():
    started = time.time()
    rng = Rng(1009, "c9")
    for trial in range(50):
        r = rng.split(str(trial))
        a = r.randint(1, 16)
        b = 2 * a + r.randint(0, 8)
        inst = AvoidInstance(a, b, tuple(r.randint(1, b) for _ in range(a)))
        result = avoid_via_hitting(inst, seed=trial)
        assert result.value in solution_set(inst)
        # Confirm the compressed string avoids range(h) by enumerating all
        # 2^m preimages, independently of the pipeline's internal check.
        g, _ = normalize(inst)
        sched = desk_schedule(g.in_bits)
        h = amplify(g, sched.t_prime - g.in_bits)
        y = int(result.trace["y"][::-1], 2)  # the trace writes bit 0 first
        assert all(h(x) != y for x in range(1 << h.in_bits))
    _report(9, "hitting-set reduction solves 50 random instances", started, 300)


def test_criterion_10_class_structure_audit():
    started = time.time()
    checked = 0
    for m in (2, 3):
        inst_rng = Rng(1010, f"c10:{m}")
        b = 2 ** (m + 1)
        a = 2**m
        inst = AvoidInstance(a, b, tuple(inst_rng.randint(1, b) for _ in range(a)))
        g, _ = normalize(inst)
        sched = desk_schedule(g.in_bits)
        h = amplify(g, sched.t_prime - g.in_bits)
        cls = build_avoid_class(h, sched)
        point = (2 * sched.q,) * sched.n
        for x, member in members(cls):
            checked += 1
            rep = analyze_degrees(member)
            for j in range(1, sched.n + 1):
                assert rep.individual[f"x{j}"] == 2 * sched.r
            assert eval_gates(member, point) > 0
    _report(10, f"degree 2r and positivity on {checked} class members", started, 30)
