"""Builtin definable classes."""

from itertools import product

import pytest

from szpit.circuit import analyze_degrees
from szpit.classes import (
    _decode_gates,
    all_circuits_class,
    linear_class,
    monomial_class,
    multilinear_class,
)
from szpit.errors import CircuitValidationError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass, search_hitting_set, verify_hitting_set, zero_circuit

from helpers import members


def test_multilinear_members_evaluate_like_their_bits():
    cls = multilinear_class(2, d=2)
    for x, member in members(cls):
        for z in product(range(3), repeat=2):
            want = sum(
                (x >> mask & 1) * (z[0] ** (mask & 1)) * (z[1] ** (mask >> 1 & 1))
                for mask in range(4)
            )
            assert eval_gates(member, z) == want


def test_linear_and_monomial_shapes():
    lin = linear_class(3)
    assert lin.m == 3
    member, params = lin.decode(0b101)
    assert eval_gates(member, (5, 7, 11), params) == 5 + 11
    mono = monomial_class(3)
    member, params = mono.decode(1)
    assert eval_gates(member, (2, 3, 4), params) == 24
    member, params = mono.decode(0)
    assert eval_gates(member, (2, 3, 4), params) == 0


def test_all_circuits_decoder_is_total():
    cls = all_circuits_class(n=2, d=2, s=2048, m=8)
    for x, member in members(cls):
        rep = analyze_degrees(member)
        assert rep.max_individual <= 2
        assert member.n_vars == 2
        eval_gates(member, (1, 2))  # must evaluate without error


def test_all_circuits_decoder_reads_the_text_of_x():
    # Every x decodes to the member of its text, character j being bit j:
    # the gate records read the text, so its leading zeros matter too.
    for m in range(11):
        cls = all_circuits_class(2, 2, 400, m)
        for x in range(1 << m):
            text = "".join("01"[x >> j & 1] for j in range(m))
            try:
                ckt = _decode_gates(text, 2)
            except CircuitValidationError:
                ckt = zero_circuit(2)
            by_text = DefinableClass(decoder=lambda _: ckt, n=2, d=2, s=400, m=0)
            assert cls.decode(x) == by_text.decode(0)


def test_all_circuits_undecodable_descriptions_share_the_class_zero_member():
    # At m = 2 no text holds a whole gate record ("00" and "01" run out of
    # bits, "10" and "11" name operands before any gate), so every
    # description gives the one constant-0 member the class keeps.
    cls = all_circuits_class(2, 2, 400, 2)
    for text in ("00", "01", "10", "11"):
        with pytest.raises(CircuitValidationError, match="^no decodable gates$"):
            _decode_gates(text, 2)
    zero = cls.decode(0)[0]
    assert zero == zero_circuit(2)
    assert all(cls.decode(x) == (zero, 0) and cls.decode(x)[0] is zero for x in range(4))


def test_all_circuits_class_is_searchable():
    cls = all_circuits_class(n=2, d=2, s=2048, m=6)
    h = search_hitting_set(cls, q=8, r=15, seed=9)
    assert verify_hitting_set(cls, h).hits


def test_all_circuits_decoder_produces_nonzero_members():
    # The compact encoding reaches beyond the zero circuit.
    cls = all_circuits_class(n=2, d=2, s=2048, m=10)
    nonzero = 0
    for x, member in members(cls):
        if any(eval_gates(member, p) != 0 for p in product(range(3), repeat=2)):
            nonzero += 1
    assert nonzero > 50
