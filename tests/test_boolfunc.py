"""Bit vectors and the .bc Boolean circuit format."""

import pytest

from szpit.boolfunc import (
    BoolFunc,
    bits_to_int,
    eval_bool_circuit,
    int_to_bits,
    parse_bool_circuit,
    serialize_bool_circuit,
)
from szpit.errors import CircuitSyntaxError, DimensionMismatchError

from helpers import boolfunc_from_circuit

XOR_NOT_TEXT = """\
g0 = var x1
g1 = var x2
g2 = xor g0 g1
g3 = not g2
output g2 g3
"""


def test_bits_int_roundtrip():
    for v in range(32):
        assert bits_to_int(int_to_bits(v, 5)) == v
    assert int_to_bits(6, 3) == (0, 1, 1)  # least significant bit first


def test_parse_eval_serialize():
    c = parse_bool_circuit(XOR_NOT_TEXT)
    assert serialize_bool_circuit(c) == XOR_NOT_TEXT
    assert eval_bool_circuit(c, (1, 0)) == (1, 0)
    assert eval_bool_circuit(c, (1, 1)) == (0, 1)


def test_parse_rejects_forward_reference():
    with pytest.raises(CircuitSyntaxError):
        parse_bool_circuit("g0 = not g0\noutput g0")


def test_parse_rejects_missing_output():
    with pytest.raises(CircuitSyntaxError):
        parse_bool_circuit("g0 = var x1\n")


def test_and_or_const():
    text = "g0 = var x1\ng1 = const 1\ng2 = and g0 g1\ng3 = or g0 g1\noutput g2 g3\n"
    c = parse_bool_circuit(text)
    assert eval_bool_circuit(c, (0,)) == (0, 1)
    assert eval_bool_circuit(c, (1,)) == (1, 1)


def test_boolfunc_from_circuit():
    f = boolfunc_from_circuit(parse_bool_circuit(XOR_NOT_TEXT))
    assert f.in_bits == 2 and f.out_bits == 2
    assert f((0, 1)) == (1, 0)
    assert len(f.range_set()) == 2


def test_boolfunc_shape_checks():
    with pytest.raises(DimensionMismatchError):
        BoolFunc(1, 1, ((0,),))  # needs 2 rows
    f = BoolFunc(1, 1, ((0,), (1,)))
    with pytest.raises(DimensionMismatchError):
        f((0, 1))
