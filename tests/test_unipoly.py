"""Univariate polynomials: coefficients, roots, synthetic division."""

import pytest

from szpit.circuit import Gate, analyze_degrees, circuit
from szpit.errors import BitLengthGuardError, CapExceededError, DegreeBoundError, PreconditionError
from szpit.evaluator import Assignment, eval_arithmetic, eval_gates
from szpit.hitting import bitlen
from szpit.rng import Rng
from szpit.unipoly import (
    UniPoly,
    coef,
    deflate,
    enumerate_roots,
    eval_unipoly,
    extract_unipoly,
    parse_unipoly,
    roots_in_cube,
    serialize_unipoly,
    unipoly,
)

from genckt import random_circuit_bounded
from helpers import bit_complexity


def test_coef_basic():
    p = unipoly(-1, 0, 1)
    assert coef(p, 2) == 1
    assert coef(unipoly(7), 0) == 7
    with pytest.raises(PreconditionError):
        coef(unipoly(7), 1)


def test_eval_horner():
    assert eval_unipoly(unipoly(-1, 0, 1), 3) == 8
    p = unipoly(5, -2, 11)
    assert eval_unipoly(p, 0) == 5  # value at 0 is the constant term


def test_eval_matches_monomial_circuit():
    # Oracle: build sum_i c_i * x^i explicitly as a circuit and compare.
    rng = Rng(53, "horner-oracle")
    for i in range(200):
        r = rng.split(str(i))
        d = r.randint(0, 6)
        coeffs = tuple(r.randint(-50, 50) for _ in range(d + 1))
        u = r.randint(-9, 9)
        gates = [Gate.var(1)]
        terms = []
        power = 0  # gate index of x^1
        for k, c_k in enumerate(coeffs):
            gates.append(Gate.const(c_k))
            acc = len(gates) - 1
            for _ in range(k):
                gates.append(Gate.mul(acc, 0))
                acc = len(gates) - 1
            terms.append(acc)
        acc = terms[0]
        for t in terms[1:]:
            gates.append(Gate.add(acc, t))
            acc = len(gates) - 1
        ckt = circuit(gates)
        expected = eval_arithmetic(ckt, Assignment((u,)), max(d, 1) + 1)
        assert eval_unipoly(UniPoly(coeffs), u) == expected


def test_extract_difference_of_squares():
    c = circuit([
        Gate.var(1), Gate.const(1), Gate.add(0, 1),
        Gate.const(-1), Gate.add(0, 3), Gate.mul(2, 4),
    ])
    assert extract_unipoly(c, 2).coeffs == (-1, 0, 1)


def test_extract_constant_and_identity():
    assert extract_unipoly(circuit([Gate.const(7)]), 0).coeffs == (7,)
    assert extract_unipoly(circuit([Gate.var(1)]), 3).coeffs == (0, 1, 0, 0)


def test_extract_bitlen_guard():
    # x * 1 beside a chain of squarings of 3 that the output never reads:
    # gate i holds 3^(2^(i-1)), and gate 11, 3^1024, is the first wider
    # than 1024 bits.  Extraction stops there, as evaluation does.
    c = circuit(
        [Gate.var(1), Gate.const(3)] + [Gate.mul(i, i) for i in range(1, 12)]
        + [Gate.const(1), Gate.mul(0, 13)]
    )
    with pytest.raises(BitLengthGuardError, match="^gate 11: value exceeds 1024-bit guard$"):
        extract_unipoly(c, 1, bitlen_guard=1024)
    with pytest.raises(BitLengthGuardError, match="^gate 11: value exceeds 1024-bit guard$"):
        eval_gates(c, (5,), (), 1024)
    assert extract_unipoly(c, 1).coeffs == (0, 1)
    # Forty doublings of 1 by add gates, then a square: 2^80 passes a
    # 64-bit guard only through the bits the adds gained.
    c = circuit(
        [Gate.var(1), Gate.const(1)] + [Gate.add(i, i) for i in range(1, 41)]
        + [Gate.mul(41, 41), Gate.mul(0, 42)]
    )
    with pytest.raises(BitLengthGuardError, match="^gate 42: value exceeds 64-bit guard$"):
        extract_unipoly(c, 1, bitlen_guard=64)
    with pytest.raises(BitLengthGuardError, match="^gate 42: value exceeds 64-bit guard$"):
        eval_gates(c, (5,), (), 64)


def test_extract_rejects_multivariate_and_overdegree():
    two_vars = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])
    with pytest.raises(Exception):
        extract_unipoly(two_vars, 4)
    square = circuit([Gate.var(1), Gate.mul(0, 0)])
    with pytest.raises(DegreeBoundError):
        extract_unipoly(square, 1)


def test_extract_rejects_unplugged_parameter():
    c = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    with pytest.raises(PreconditionError):
        extract_unipoly(c, 2)


def test_extraction_agrees_with_evaluation():
    rng = Rng(59, "extract")
    checked = 0
    for attempt in range(3000):
        if checked >= 300:
            break
        r = rng.split(str(attempt))
        c = random_circuit_bounded(r, n_vars=1, max_individual=8, extra_gates=8)
        if c is None:
            continue
        checked += 1
    else:
        raise AssertionError("generator starved")
        d = analyze_degrees(c).max_individual
        p = extract_unipoly(c, d)
        for u in range(-d - 1, d + 2):
            assert eval_unipoly(p, u) == eval_arithmetic(
                c, Assignment((u,)), len(c.gates) ** 2 + 2 ** len(c.gates)
            )


def test_extraction_coefficient_bitlength():
    # Coefficient-growth bound with the caps of the generation regime
    # plugged in: s_cap-bit constants, degree bound d_cap, at most 24 gates.
    s_cap, d_cap = 64, 16
    rng = Rng(61, "extract-bits")
    checked = 0
    for attempt in range(3000):
        if checked >= 300:
            break
        r = rng.split(str(attempt))
        c = random_circuit_bounded(
            r, n_vars=1, max_individual=d_cap, extra_gates=r.randint(1, 20),
            const_bits=s_cap,
        )
        if c is None:
            continue
        checked += 1
        d_u = analyze_degrees(c).total
        p = extract_unipoly(c, d_cap)
        bound = (s_cap + bitlen(d_cap + 1)) * (2 * d_u - 1)
        assert bit_complexity(p) <= bound
    else:
        raise AssertionError("generator starved")


def test_enumerate_roots_examples():
    assert enumerate_roots(unipoly(-1, 0, 1), 3) == (1, 3)
    assert enumerate_roots(unipoly(5, 0, 0), 3) == (3, 3)
    assert enumerate_roots(unipoly(0, 2, -3, 1), 4) == (0, 1, 2)


def test_enumerate_roots_zero_polynomial_truncates():
    assert enumerate_roots(unipoly(0, 0, 0), 5) == (0, 1)


def test_enumerate_roots_caps_q():
    with pytest.raises(CapExceededError):
        enumerate_roots(unipoly(0, 1), 1 << 20)


def test_fta_half_property():
    # For nonzero p: the listed roots are exactly the cube roots, and
    # there are at most d of them.
    rng = Rng(67, "fta")
    for i in range(500):
        r = rng.split(str(i))
        d = r.randint(1, 8)
        q = r.randint(1, 64)
        p = UniPoly(tuple(r.randint(-20, 20) for _ in range(d + 1)))
        if p.is_zero:
            continue
        listed = [v for v in enumerate_roots(p, q) if v < q]
        brute = [u for u in range(q) if eval_unipoly(p, u) == 0]
        assert listed == brute
        assert len(brute) <= d
        assert roots_in_cube(p, q) == tuple(brute)


def test_deflate_examples():
    assert deflate(unipoly(-1, 0, 1), 1).coeffs == (1, 1)
    assert deflate(unipoly(0, 1), 0).coeffs == (1,)
    with pytest.raises(PreconditionError):
        deflate(unipoly(-1, 0, 1), 2)


def test_deflate_identity_on_planted_roots():
    rng = Rng(71, "deflate")
    for i in range(300):
        r = rng.split(str(i))
        d = r.randint(1, 7)
        v = r.randint(-6, 6)
        # Plant the root: a(x) = (x - v) * c(x) for random c.
        c = [r.randint(-9, 9) for _ in range(d)]
        a = [0] * (d + 1)
        for k, ck in enumerate(c):
            a[k + 1] += ck
            a[k] -= v * ck
        p = UniPoly(tuple(a))
        b = deflate(p, v)
        for u in [r.randint(-30, 30) for _ in range(2 * d + 1)]:
            assert eval_unipoly(p, u) == (u - v) * eval_unipoly(b, u)
        # Bit growth stays within the synthetic-division budget.
        assert bit_complexity(b) <= bit_complexity(p) + d * bitlen(abs(v)) + bitlen(d)


def test_text_form_roundtrip():
    p = unipoly(-1, 0, 1)
    assert parse_unipoly(serialize_unipoly(p)) == p
    assert parse_unipoly("-1,0,1") == p
