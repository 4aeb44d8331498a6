"""Bit strings as ints, and the .bc Boolean circuit format."""

import sys

import pytest

from szpit.boolfunc import (
    BoolFunc,
    BoolGate,
    bool_circuit,
    boolfunc_from_callable,
    eval_bool_circuit,
    int_to_bit_str,
    parse_bool_circuit,
)
from szpit.errors import CircuitSyntaxError, CircuitValidationError, DimensionMismatchError

from helpers import boolfunc_from_circuit, serialize_bool_circuit
from oracles import bits_to_int, int_to_bits

XOR_NOT_TEXT = """\
g0 = var x1
g1 = var x2
g2 = xor g0 g1
g3 = not g2
output g2 g3
"""


def test_bits_int_roundtrip():
    # The text form and the per-bit view the test oracles use.
    for v in range(32):
        assert int(int_to_bit_str(v, 5)[::-1], 2) == v
        assert bits_to_int(int_to_bits(v, 5)) == v
    assert int_to_bit_str(6, 3) == "011"  # least significant bit first
    assert int_to_bits(6, 3) == (0, 1, 1)
    # Two's-complement low bits for negatives, high bits dropped, and
    # nothing at a width of 0 or less.
    assert int_to_bit_str(-1, 4) == "1111"
    assert int_to_bit_str(-6, 4) == "0101"
    assert int_to_bit_str(0b10110, 3) == "011"
    assert int_to_bit_str(1 << 719, 720) == "0" * 719 + "1"
    for width in (0, -1, -2):
        assert int_to_bit_str(5, width) == ""
        assert int_to_bits(5, width) == ()
    assert int_to_bit_str(6, 5) == "01100"


def test_parse_eval_serialize():
    c = parse_bool_circuit(XOR_NOT_TEXT)
    assert serialize_bool_circuit(c) == XOR_NOT_TEXT
    # x1 is bit 0 of the input and output j is bit j of the result.
    assert eval_bool_circuit(c, 0b01) == 0b01
    assert eval_bool_circuit(c, 0b11) == 0b10
    assert eval_bool_circuit(c, 0b00) == 0b10


@pytest.mark.parametrize("x", [-1, 4, 1 << 70])
def test_eval_bool_circuit_refuses_an_input_outside_its_domain(x):
    # Two inputs: x outside [0, 4) has bits past x2, or is negative.
    c = parse_bool_circuit(XOR_NOT_TEXT)
    with pytest.raises(DimensionMismatchError, match=r"outside \[0, 2\^2\)"):
        eval_bool_circuit(c, x)


def test_parse_rejects_forward_reference():
    with pytest.raises(CircuitSyntaxError):
        parse_bool_circuit("g0 = not g0\noutput g0")


def test_parse_rejects_missing_output():
    with pytest.raises(CircuitSyntaxError):
        parse_bool_circuit("g0 = var x1\n")


def test_and_or_const():
    text = "g0 = var x1\ng1 = const 1\ng2 = and g0 g1\ng3 = or g0 g1\noutput g2 g3\n"
    c = parse_bool_circuit(text)
    assert eval_bool_circuit(c, 0) == 0b10
    assert eval_bool_circuit(c, 1) == 0b11


def test_boolfunc_from_circuit():
    f = boolfunc_from_circuit(parse_bool_circuit(XOR_NOT_TEXT))
    assert f.in_bits == 2 and f.out_bits == 2
    assert f.rows == (2, 1, 1, 2)
    assert f(0b10) == 0b01
    assert len(set(f.rows)) == 2


def test_boolfunc_shape_checks():
    with pytest.raises(DimensionMismatchError):
        BoolFunc(1, 1, (0,))  # needs 2 rows
    f = BoolFunc(1, 1, (0, 1))
    with pytest.raises(DimensionMismatchError):
        f(2)  # a 2-bit input


def test_packed_boolfunc_answers_as_its_table():
    # Rows are packed ints, and a call answers with the row.
    table = ((1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1))
    f = BoolFunc(2, 3, tuple(bits_to_int(row) for row in table))
    assert f.rows == (5, 6, 3, 5)
    for v in range(4):
        assert f(v) == f.rows[v] == bits_to_int(table[v])
    with pytest.raises(DimensionMismatchError):
        f(0b110)


@pytest.mark.parametrize("rows", [(0,), (0, 1, 2), (0, -1), (0, 8)])
def test_packed_boolfunc_shape_checks(rows):
    # Two rows of 3 bits each: a row count other than 2, or a row outside
    # [0, 8), is refused.
    with pytest.raises(DimensionMismatchError):
        BoolFunc(1, 3, rows)


@pytest.mark.parametrize("width", [2, 4])
def test_boolfunc_from_callable_checks_row_width(width):
    # An int row has no width of its own: the all-ones row of 2 bits is a
    # 3-bit row, while the one of 4 bits has a bit past the third.
    ones = (1 << width) - 1
    if width <= 3:
        assert boolfunc_from_callable(lambda x: ones, 1, 3).rows == (ones, ones)
    else:
        with pytest.raises(DimensionMismatchError, match=r"outside \[0, 2\^3\)"):
            boolfunc_from_callable(lambda x: ones, 1, 3)
    assert boolfunc_from_callable(lambda x: x * 7, 1, 3).rows == (0, 7)


@pytest.mark.parametrize("row", [4, -1, 1 << 70])
def test_boolfunc_from_callable_refuses_a_row_outside_its_range(row):
    # Two-bit rows: 4 and 2^70 have a bit past bit 1, and -1 is negative.
    with pytest.raises(DimensionMismatchError, match=r"outside \[0, 2\^2\)"):
        boolfunc_from_callable(lambda x: row if x else 0, 1, 2)


@pytest.mark.parametrize("x", [-1, 2, 3])
def test_boolfunc_call_refuses_an_input_outside_its_domain(x):
    # Unchecked, -1 would read the last row, and 2 and 3 would fail on
    # the table's index instead.
    f = BoolFunc(1, 2, (1, 2))
    assert f(1) == 2
    with pytest.raises(DimensionMismatchError, match=r"input .* outside \[0, 2\^1\)"):
        f(x)


def bc_located(text):
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_bool_circuit(text)
    return str(exc.value), exc.value.line, exc.value.col


@pytest.mark.parametrize("text, message", [
    ("output g0\n", "empty gate list"),
    ("g0 = var x2\noutput g0\n", "gap in variable naming: saw [2], n_vars=2"),
    ("g0 = var x1\ng1 = var x3\noutput g1\n", "gap in variable naming: saw [1, 3], n_vars=3"),
    ("g0 = var x1\noutput g0 g1\n", "output references missing gate g1"),
    ("g0 = var x1\n", "missing output line"),
], ids=["empty", "var-gap", "var-gap-inside", "missing-output-gate", "no-output-line"])
def test_bc_refusals_without_a_line(text, message):
    # What BoolCircuit refuses comes back from the parser unlocated.
    assert bc_located(text) == (message, 0, 0)


@pytest.mark.parametrize("gates, outputs, message", [
    ([], [], "empty gate list"),
    ([BoolGate("var", name=1), BoolGate("and", lhs=0, rhs=1)], [1], "gate 1: bad operand reference"),
    ([BoolGate("var", name=1), BoolGate("not", lhs=-1)], [1], "gate 1: bad operand reference"),
    ([BoolGate("var", name=1), BoolGate("nand", lhs=0, rhs=0)], [1], "gate 1: unknown gate kind 'nand'"),
    ([BoolGate("var", name=0)], [0], "gap in variable naming: saw [0], n_vars=0"),
    ([BoolGate("var", name=1)], [1], "output references missing gate g1"),
])
def test_bool_circuit_refusals(gates, outputs, message):
    # Operands and kinds the grammar cannot spell are refused on construction.
    with pytest.raises(CircuitValidationError) as exc:
        bool_circuit(gates, outputs)
    assert str(exc.value) == message


# One digit past the interpreter's int/str conversion limit.
TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("indent", ["", " \t "], ids=["flush", "indented"])
@pytest.mark.parametrize("row, line, col", [
    (f"g1 = var x{TOO_LONG}", 2, len("g1 = var x") + 1),
    (f"g1 = and g0 g{TOO_LONG}", 2, len("g1 = and g0 g") + 1),
    (f"g1 = not g{TOO_LONG}", 2, len("g1 = not g") + 1),
    (f"g{TOO_LONG} = var x1", 2, 2),
    (f"output g0 g{TOO_LONG}", 2, len("output g0 g") + 1),
], ids=["var-index", "operand", "not-operand", "gate-id", "output-id"])
def test_bc_integer_past_the_digit_limit_is_located(row, line, col, indent):
    text = f"{indent}g0 = var x1\n{indent}{row}\n" + ("" if "output" in row else "output g0\n")
    message, *where = bc_located(text)
    assert "conversion limit" in message
    assert where == [line, len(indent) + col]


@pytest.mark.parametrize("text, message, line, col", [
    ("g0 = var x1\ng0 = var x1\noutput g0\n", "duplicate gate id g0", 2, 2),
    ("g0 = var x1\ng2 = var x1\noutput g0\n", "out-of-order gate id g2", 2, 2),
    ("g0 = nand g0\noutput g0\n", "cannot parse statement 'g0 = nand g0'", 1, len("g0 = nand") + 1),
    ("g0 = var x1\ng1 = not g1\noutput g1\n", "forward reference in g1", 2, 1),
    ("g0 = var x1\ng1 = or g0 g2\noutput g1\n", "forward reference in g1", 2, 1),
    ("g0 = var x1\noutput g0\ng1 = var x1\n", "statement after output line", 3, 1),
], ids=["duplicate-id", "out-of-order-id", "unknown-kind", "not-forward", "or-forward", "after-output"])
def test_bc_syntax_error_columns_count_the_indent(text, message, line, col):
    # The .bc reader shares the .ac statement reader, columns included.
    assert bc_located(text) == (f"line {line}, col {col}: {message}", line, col)
    indent = "\t  "
    indented = "".join(indent + row for row in text.splitlines(keepends=True))
    want = f"line {line}, col {len(indent) + col}: {message}"
    assert bc_located(indented) == (want, line, len(indent) + col)


def test_bc_reads_comments_blanks_and_indents_as_ac_does():
    text = "# a header\n  g0 = var x1  # first\n\n\tg1 = var x2\n  g2 = xor g0 g1\noutput g2 g0 # two bits\n"
    c = parse_bool_circuit(text)
    assert c.outputs == (2, 0)
    assert [eval_bool_circuit(c, x) for x in range(4)] == [0b00, 0b11, 0b01, 0b10]


# Decimal digits outside ASCII, which int() reads: Arabic-Indic and fullwidth.
SCRIPTS = {"arabic-indic": 0x0660, "fullwidth": 0xFF10}


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
@pytest.mark.parametrize("template, line, col", [
    ("g{0} = var x1\noutput g0\n", 1, len("g") + 1),
    ("g0 = var x{1}\noutput g0\n", 1, len("g0 = var x") + 1),
    ("g0 = var x1\ng1 = and g0 g{0}\noutput g1\n", 2, len("g1 = and g0 g") + 1),
    ("g0 = var x1\ng1 = not g{0}\noutput g1\n", 2, len("g1 = not g") + 1),
    ("g0 = var x1\noutput g0 g{0}\n", 2, len("output g0 g") + 1),
], ids=["gate-id", "var-index", "operand", "not-operand", "output-id"])
def test_bc_numbers_are_ascii_digits(template, line, col, script):
    # As in .ac: {d} is the digit d, which parses in ASCII and is refused
    # at that digit in another script.
    parse_bool_circuit(template.format(*"0123456789"))
    text = template.format(*(chr(script + d) for d in range(10)))
    message, *where = bc_located(text)
    assert "cannot parse statement" in message
    assert where == [line, col]
