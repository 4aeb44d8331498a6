"""Builtin definable classes."""

import hashlib
from itertools import product
from math import prod

import pytest

from szpit.circuit import MUL, PARAM, Gate, analyze_degrees, circuit, serialize_circuit
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


# sha256 of serialize_circuit(cls.template) at n = 1..6, pinned from the
# per-class builders the shared template builder replaced.
TEMPLATE_SHA256 = {
    multilinear_class: [
        "542f338afddd71f16d39f090d48df9efe536d576ef4f22d357441893365ae0b9",
        "446d4bf2ecaffdf0d28e501647723d67463ff6f266de55cfd73b4883d5119eb0",
        "20bc7ae276715702fb2d1b270d1a70c3971c3911eb095d7f671a48a01936c5b2",
        "315156f52d45141b2f0ecc86c9965056fde34a07282e4b665ee024bd409e7791",
        "684ee5cb3fb2186b5f3acdc5f45a63c5db686425238397bd00643980c8010eec",
        "3d14fd14309525c242737d5eda441576c8c232856abb7e910e2cefe2be8d20e0",
    ],
    linear_class: [
        "837c05a5163c131457d17ade4728211e208babfb5fe3d053c5b660773c44a0a4",
        "0f47fedce1c879c2bda11cb02f7c2778370600292f170dc1f33a0cafab2775f0",
        "f28c66e511be8d60282b8f45adb605ffc61b266110345cf64555bbe14994c5ee",
        "84b2387325f1a5f26da7ae645e5200bf905118a42236c97c905b5ee470186465",
        "90becaa4822168677c9222fbe32a7ec9c5104cf1374a0593f1aa94e6e070d7ab",
        "a6a9364b982d252c0435dde864f90e10359a315839ca0d429558d7f8bd002d99",
    ],
    monomial_class: [
        "837c05a5163c131457d17ade4728211e208babfb5fe3d053c5b660773c44a0a4",
        "bd7f8c238c79609a0e9704cc23a90bc0ae3233e9d0c0b27e61ae2b6124c37c91",
        "50cc7a8e2206cc7c737afb6fe29922949c18cbe19ca032d3e00533e90f54918c",
        "31e30a3d2da694aef3d5295cc4ebbe137c8c47f1929b96036ec8f36b8dd3a31b",
        "bf9399f73b4c3ac4ad5c16b85586f0d70cc91d324b8f65782f498556b53d8fe6",
        "582d3ddf593ac67338c40ec498d4718d98cb29cee63d8320883f9b057b1d3ade",
    ],
}

# The variable set of each class's monomial k, as a bit mask: bit j - 1 is z_j.
MONOMIAL_MASKS = {
    multilinear_class: lambda n: list(range(1 << n)),
    linear_class: lambda n: [1 << j for j in range(n)],
    monomial_class: lambda n: [(1 << n) - 1],
}


def mul_chains(template):
    """Param name -> the variables its run of mul gates multiplies in, each
    mul reading the gate just before it."""
    gates = template.gates
    chains = {}
    for i, g in enumerate(gates):
        if g.op == PARAM:
            chain = chains[g.name] = []
            while i + 1 < len(gates) and gates[i + 1].op == MUL and gates[i + 1].lhs == i:
                i += 1
                chain.append(gates[gates[i].rhs].name)
    return chains


@pytest.mark.parametrize("make", list(TEMPLATE_SHA256), ids=lambda f: f.__name__)
def test_template_classes_share_one_pinned_layout(make):
    for n, want in enumerate(TEMPLATE_SHA256[make], start=1):
        cls = make(n)
        text = serialize_circuit(cls.template)
        assert hashlib.sha256(text.encode()).hexdigest() == want
        masks = MONOMIAL_MASKS[make](n)
        assert cls.m == len(masks) and cls.template.n_params == len(masks)
        # Param k heads the mul chain of monomial k, and bit k - 1 of x
        # switches that monomial alone on.
        assert mul_chains(cls.template) == {
            k: [j + 1 for j in range(n) if mask >> j & 1] for k, mask in enumerate(masks, 1)
        }
        z = (2, 3, 5, 7, 11, 13)[:n]
        for k, mask in enumerate(masks, 1):
            member, params = cls.decode(1 << (k - 1))
            assert eval_gates(member, z, params) == prod(z[j] for j in range(n) if mask >> j & 1)


def test_all_circuits_decoder_stops_at_an_operand_past_the_gates_read():
    # n = 2: "000" is var x1; "10" starts an add whose 1-bit operands must
    # name g0, so lhs = 1 ends the read there, and later records are unread.
    one_var = circuit([Gate.var(1)])
    assert _decode_gates("000", 2) == one_var
    for tail in ("10" "10", "11" "01", "10" "10" "000"):
        assert _decode_gates("000" + tail, 2) == one_var
    assert _decode_gates("000" + "10" "00", 2) == circuit([Gate.var(1), Gate.add(0, 0)])
