"""Bit vectors and the .bc Boolean circuit format."""

import pytest

from szpit.boolfunc import (
    BoolFunc,
    bits_to_int,
    boolfunc_from_callable,
    eval_bool_circuit,
    int_to_bit_str,
    int_to_bits,
    parse_bool_circuit,
    serialize_bool_circuit,
)
from szpit.errors import CircuitSyntaxError, DimensionMismatchError, PreconditionError

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
    # Two's-complement low bits for negatives, high bits dropped, and
    # nothing at a width of 0 or less.
    assert int_to_bits(-1, 4) == (1, 1, 1, 1)
    assert int_to_bits(-6, 4) == (0, 1, 0, 1)
    assert int_to_bits(0b10110, 3) == (0, 1, 1)
    assert int_to_bits(1 << 719, 720) == (0,) * 719 + (1,)
    for width in (0, -1, -2):
        assert int_to_bits(5, width) == ()
        assert int_to_bit_str(5, width) == ""
    assert int_to_bit_str(6, 5) == "01100"
    assert int_to_bit_str(-6, 4) == "0101"


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
        BoolFunc(1, 1, (0,))  # needs 2 rows
    f = BoolFunc(1, 1, (0, 1))
    with pytest.raises(DimensionMismatchError):
        f((0, 1))


def test_packed_boolfunc_answers_as_its_table():
    # Rows are packed ints; calls and range_set answer in Bits.
    table = ((1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1))
    f = BoolFunc(2, 3, tuple(bits_to_int(row) for row in table))
    assert f.rows == (5, 6, 3, 5)
    assert f.range_set() == set(table)
    for v in range(4):
        assert f(int_to_bits(v, 2)) == table[v]
    with pytest.raises(DimensionMismatchError):
        f((0, 1, 1))


@pytest.mark.parametrize("rows", [(0,), (0, 1, 2), (0, -1), (0, 8)])
def test_packed_boolfunc_shape_checks(rows):
    # Two rows of 3 bits each: a row count other than 2, or a row outside
    # [0, 8), is refused.
    with pytest.raises(DimensionMismatchError):
        BoolFunc(1, 3, rows)


@pytest.mark.parametrize("width", [2, 4])
def test_boolfunc_from_callable_checks_row_width(width):
    # An int row cannot show its width: unchecked, rows of 2 or 4 zero
    # bits would both pack to 0 and pass as 3-bit rows.
    with pytest.raises(DimensionMismatchError, match="width != 3"):
        boolfunc_from_callable(lambda bits: (0,) * width, 1, 3)
    assert boolfunc_from_callable(lambda bits: bits * 3, 1, 3).rows == (0, 7)


@pytest.mark.parametrize("row", [(2, 0), (0, -1), (1, 3)])
def test_boolfunc_from_callable_refuses_a_row_with_a_non_bit(row):
    # Packed unchecked, (2, 0) would become the row 0 and (1, 3) the row 3.
    with pytest.raises(PreconditionError, match="other than 0 and 1"):
        boolfunc_from_callable(lambda bits: row, 1, 2)


@pytest.mark.parametrize("bits", [(3,), (-1,), (2,)])
def test_boolfunc_call_refuses_a_non_bit_input(bits):
    # Unchecked, (3,) and (-1,) would read the row at input (1,).
    f = BoolFunc(1, 2, (1, 2))
    assert f((1,)) == (0, 1)
    with pytest.raises(PreconditionError, match="other than 0 and 1"):
        f(bits)
