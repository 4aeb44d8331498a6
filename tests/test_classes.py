"""Builtin definable classes."""

from itertools import product

from szpit.circuit import analyze_degrees
from szpit.classes import (
    all_circuits_class,
    linear_class,
    monomial_class,
    multilinear_class,
)
from szpit.evaluator import eval_gates
from szpit.hitting import search_hitting_set, verify_hitting_set


def test_multilinear_members_evaluate_like_their_bits():
    cls = multilinear_class(2, d=2)
    for x, member in cls.members():
        for z in product(range(3), repeat=2):
            want = sum(
                int(x[mask]) * (z[0] ** (mask & 1)) * (z[1] ** (mask >> 1 & 1))
                for mask in range(4)
            )
            assert eval_gates(member, z) == want


def test_linear_and_monomial_shapes():
    lin = linear_class(3)
    assert lin.m == 3
    member, params = lin.decode("101")
    assert eval_gates(member, (5, 7, 11), params) == 5 + 11
    mono = monomial_class(3)
    member, params = mono.decode("1")
    assert eval_gates(member, (2, 3, 4), params) == 24
    member, params = mono.decode("0")
    assert eval_gates(member, (2, 3, 4), params) == 0


def test_all_circuits_decoder_is_total():
    cls = all_circuits_class(n=2, d=2, s=2048, m=8)
    for x, member in cls.members():
        rep = analyze_degrees(member)
        assert rep.max_individual <= 2
        assert member.n_vars == 2
        eval_gates(member, (1, 2))  # must evaluate without error


def test_all_circuits_class_is_searchable():
    cls = all_circuits_class(n=2, d=2, s=2048, m=6)
    h = search_hitting_set(cls, q=8, r=15, seed=9)
    assert verify_hitting_set(cls, h).hits


def test_all_circuits_decoder_produces_nonzero_members():
    # The compact encoding reaches beyond the zero circuit.
    cls = all_circuits_class(n=2, d=2, s=2048, m=10)
    nonzero = 0
    for x, member in cls.members():
        if any(eval_gates(member, p) != 0 for p in product(range(3), repeat=2)):
            nonzero += 1
    assert nonzero > 50
