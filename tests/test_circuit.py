"""Circuit IR: text format, validation, degree analysis."""

import copy
import importlib
import pickle
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest

from szpit.boolfunc import parse_bool_circuit
from szpit.circuit import (
    Circuit,
    Gate,
    analyze_degrees,
    circuit,
    pad_vars,
    param_digits,
    parse_circuit,
    plug_params,
    representation_size,
    serialize_circuit,
    validate,
)
from szpit.config import DEFAULT_EXHAUSTION_CAP
from szpit.errors import CapExceededError, CircuitSyntaxError, CircuitValidationError
from szpit.rng import Rng

from genckt import random_circuit
from helpers import LINE_BREAKS, SPACES, assert_exact_frozen, count_degree_passes
from oracles import degree_oracle, naive_eval

circuit_mod = importlib.import_module("szpit.circuit")

PRODUCT_TEXT = "g0 = var x1\ng1 = var x2\ng2 = mul g0 g1\noutput g2\n"


def product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def test_parse_product():
    c = parse_circuit(PRODUCT_TEXT)
    assert c == product_circuit()
    assert c.n_vars == 2 and c.n_params == 0


def test_parse_constant():
    c = parse_circuit("g0 = const -3\noutput g0")
    assert c.gates == (Gate.const(-3),)


def test_parse_comments_and_blanks():
    text = "# header\n\ng0 = var x1  # the input\noutput g0\n"
    assert parse_circuit(text).n_vars == 1


def test_parse_forward_reference_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("g0 = var x1\ng1 = mul g1 g0\noutput g1")


def test_parse_duplicate_gate_id():
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit("g0 = var x1\ng0 = var x1\noutput g0")
    assert "duplicate" in str(exc.value)


def test_parse_unknown_kind_and_position():
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit("g0 = frob x1\noutput g0")
    assert exc.value.line == 1


# One digit past the interpreter's int/str conversion limit.
TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("indent", ["", " \t  "], ids=["flush", "indented"])
@pytest.mark.parametrize("commented", [False, True])
@pytest.mark.parametrize("row, col", [
    (f"g1 = const -{TOO_LONG}", len("g1 = const ") + 1),
    (f"g1 = var x{TOO_LONG}", len("g1 = var x") + 1),
    (f"g{TOO_LONG} = var x1", 2),
], ids=["const", "var-index", "gate-id"])
def test_parse_integer_past_the_digit_limit_is_located(row, col, commented, indent):
    lines = ["g0 = var x1", row, "g2 = mul g0 g1", "output g2"]
    if commented:
        lines = ["# header", *lines[:1], f"{row}  # a long literal", *lines[2:]]
    text = "".join(f"{indent}{line}\n" for line in lines)
    with pytest.raises(CircuitSyntaxError, match="conversion limit") as exc:
        parse_circuit(text)
    assert (exc.value.line, exc.value.col) == (2 + commented, len(indent) + col)


def located(text):
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit(text)
    return exc.value.line, exc.value.col


@pytest.mark.parametrize("text, line, col", [
    ("g0 = var x1\ng0 = var x1\noutput g0\n", 2, 2),
    ("g0 = frob x1\noutput g0\n", 1, len("g0 = frob") + 1),
    ("g0 = var x1\ng1 = add g0 g1\noutput g1\n", 2, 1),
    ("g0 = var x1\noutput g0\ng1 = var x1\n", 3, 1),
], ids=["duplicate-id", "unknown-kind", "forward-reference", "after-output"])
def test_syntax_error_columns_count_the_indent(text, line, col):
    assert located(text) == (line, col)
    indent = "\t  "
    indented = "".join(indent + row for row in text.splitlines(keepends=True))
    assert located(indented) == (line, len(indent) + col)


def test_parse_refuses_an_output_line_before_any_gate():
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit("output g0\n")
    assert (str(exc.value), exc.value.line, exc.value.col) == ("no gates before output line", 0, 0)


def test_pad_vars_refuses_fewer_variables():
    with pytest.raises(CircuitValidationError) as exc:
        pad_vars(product_circuit(), 1)
    assert str(exc.value) == "circuit has 2 > 1 variables"


def test_parse_output_must_be_last_gate():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("g0 = var x1\ng1 = var x2\noutput g0")


def test_gates_stay_frozen_slotted_dataclasses():
    # The library builds gates by filling their slots; they must equal,
    # hash and print as the dataclass's own, and stay immutable.
    built = [Gate.var(2), Gate.param(1), Gate.const(-7), Gate.add(0, 1), Gate.mul(1, 0),
             *parse_circuit("g0 = var x1\ng1 = const -7\ng2 = mul g1 g0\noutput g2\n").gates]
    direct = [Gate("var", name=2), Gate("param", name=1), Gate("const", value=-7),
              Gate("add", lhs=0, rhs=1), Gate("mul", lhs=1, rhs=0),
              Gate("var", name=1), Gate("const", value=-7), Gate("mul", lhs=1, rhs=0)]
    for g, h in zip(built, direct, strict=True):
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert not hasattr(g, "__dict__")
        with pytest.raises(FrozenInstanceError):
            g.lhs = 5
    assert Gate.add(0, 1) != Gate.mul(0, 1) and Gate.var(1) != Gate.param(1)


GATE_BUILDS = {
    "var": (lambda: Gate.var(2), Gate("var", name=2)),
    "param": (lambda: Gate.param(3), Gate("param", name=3)),
    "const": (lambda: Gate.const(-7), Gate("const", value=-7)),
    "add": (lambda: Gate.add(0, 1), Gate("add", lhs=0, rhs=1)),
    "mul": (lambda: Gate.mul(4, 2), Gate("mul", lhs=4, rhs=2)),
    "_gate": (lambda: circuit_mod._gate("mul", 0, 0, 1, 0), Gate("mul", lhs=1, rhs=0)),
}


@pytest.mark.parametrize("build, want", GATE_BUILDS.values(), ids=GATE_BUILDS)
def test_each_gate_constructor_builds_an_exact_frozen_gate(build, want):
    # Built as a mutable twin, then given the class Gate: the result is a
    # true frozen Gate, alike to the dataclass __init__'s in every respect.
    assert_exact_frozen(build(), want)


def test_gate_builder_has_the_gate_slots():
    # The class swap needs identical slot layouts; a field added to Gate
    # alone fails here rather than as a TypeError inside a parse.
    assert circuit_mod._GateBuilder.__slots__ == Gate.__slots__


def test_parse_shares_equal_const_and_var_gates():
    c = parse_circuit("g0 = var x1\ng1 = const 2\ng2 = mul g0 g1\ng3 = const 2\n"
                      "g4 = var x1\ng5 = mul g3 g4\ng6 = add g2 g5\noutput g6\n")
    assert c.gates[1] is c.gates[3] and c.gates[0] is c.gates[4]
    assert c.gates[2] is not c.gates[5]


def test_serialize_product():
    assert serialize_circuit(product_circuit()) == PRODUCT_TEXT


def test_empty_circuit_refused_at_construction():
    with pytest.raises(CircuitValidationError):
        circuit([])


def test_validate_forward_reference():
    with pytest.raises(CircuitValidationError) as exc:
        Circuit((Gate.var(1), Gate.var(2), Gate.var(2), Gate.add(5, 0)), 2, 0)
    assert "forward reference" in str(exc.value)


def test_validate_variable_gap():
    with pytest.raises(CircuitValidationError) as exc:
        Circuit((Gate.var(1), Gate.var(3)), 3, 0)
    assert "gap" in str(exc.value)


V, P = Gate.var, Gate.param
INVALID_GATE_LISTS = {
    "empty": ([], "empty gate list"),
    "forward-reference": ([V(1), Gate.add(0, 2), V(2)], "gate 1: forward reference to g2"),
    "self-reference": ([V(1), Gate.mul(0, 1)], "gate 1: forward reference to g1"),
    "negative-operand": ([V(1), Gate.add(0, -1)], "gate 1: negative operand index"),
    "var-index-0": ([V(1), V(0)], "gate 1: variable index must be >= 1"),
    "param-index-0": ([P(0), V(1)], "gate 0: parameter index must be >= 1"),
    "unknown-op": ([V(1), Gate("sub", lhs=0, rhs=0)], "gate 1: unknown gate kind 'sub'"),
    "var-gap": ([V(1), V(3), Gate.mul(0, 1)], "gap in variable naming: saw [1, 3], n_vars=3"),
    "param-gap": ([P(2), V(1)], "gap in parameter naming: saw [2], n_params=2"),
    # The gate-by-gate checks come before the naming checks.
    "forward-reference-and-gap": ([V(2), Gate.add(0, 1), V(1)],
                                  "gate 1: forward reference to g1"),
}
# parse_circuit reaches the validator only with texts its line parser
# accepts: no empty, forward-referencing or negative-operand statements and
# no unknown ops.
PARSEABLE = ("var-index-0", "param-index-0", "var-gap", "param-gap")


@pytest.mark.parametrize("case", sorted(INVALID_GATE_LISTS))
def test_validation_errors_agree_across_constructors(case):
    gates, message = INVALID_GATE_LISTS[case]
    n_vars = max((g.name for g in gates if g.op == "var"), default=0)
    n_params = max((g.name for g in gates if g.op == "param"), default=0)
    with pytest.raises(CircuitValidationError) as built:
        circuit(gates)
    with pytest.raises(CircuitValidationError) as constructed:
        Circuit(tuple(gates), n_vars, n_params)
    assert str(built.value) == str(constructed.value) == message
    if case in PARSEABLE:
        rows = [f"g{i} = {g.op} {'x' if g.op == 'var' else 'p'}{g.name}"
                if g.op in ("var", "param") else f"g{i} = {g.op} g{g.lhs} g{g.rhs}"
                for i, g in enumerate(gates)]
        with pytest.raises(CircuitSyntaxError) as parsed:
            parse_circuit("\n".join(rows) + f"\noutput g{len(gates) - 1}\n")
        assert str(parsed.value) == message


def test_circuit_builds_what_the_constructor_builds():
    rng = Rng(103, "built")
    for i in range(200):
        c = random_circuit(rng.split(str(i)), n_vars=rng.randint(1, 4),
                           extra_gates=rng.randint(1, 12), n_params=rng.randint(0, 2))
        direct = Circuit(c.gates, c.n_vars, c.n_params)
        assert type(c) is Circuit
        assert c == direct and hash(c) == hash(direct) and repr(c) == repr(direct)
        assert vars(c) == vars(direct)
        with pytest.raises(FrozenInstanceError):
            c.n_vars = 0
        assert analyze_degrees(c) == analyze_degrees(direct)


def test_roundtrip_random_circuits():
    rng = Rng(101, "roundtrip")
    for i in range(1000):
        c = random_circuit(rng.split(str(i)), n_vars=rng.randint(1, 4), extra_gates=rng.randint(1, 12))
        assert parse_circuit(serialize_circuit(c)) == c


def test_degrees_product():
    rep = analyze_degrees(product_circuit())
    assert rep.total == 2
    assert rep.individual == {"x1": 1, "x2": 1}


def test_degrees_add_then_mul():
    # (x1 + x1) * x1: addition takes max, so the total is 2.
    c = circuit([Gate.var(1), Gate.add(0, 0), Gate.mul(1, 0)])
    rep = analyze_degrees(c)
    assert rep.total == 2
    assert rep.individual == {"x1": 2}


def test_degrees_constant_counts_as_input():
    rep = analyze_degrees(circuit([Gate.const(5)]))
    assert rep.total == 1
    assert rep.max_individual == 1


def test_degree_report_internal_consistency():
    rng = Rng(17, "consistency")
    for i in range(200):
        c = random_circuit(rng.split(str(i)), n_vars=2, extra_gates=8)
        rep = analyze_degrees(c)
        assert rep.max_individual <= rep.total <= sum(rep.individual.values())
        assert rep.total <= 2 ** len(c.gates)
        assert rep.total == degree_oracle(c)[0]


def test_degrees_match_recursive_oracle():
    rng = Rng(23, "degree-oracle")
    for i in range(300):
        c = random_circuit(rng.split(str(i)), n_vars=rng.randint(1, 3), extra_gates=6)
        total, individual = degree_oracle(c)
        rep = analyze_degrees(c)
        assert rep.total == total
        assert rep.individual == {u: d for u, d in individual.items() if d > 0}


def test_degrees_of_a_long_add_chain_in_linear_time():
    # const, add, const, add, ...: each add is its left operand's only use,
    # so the pass merges in place.  Copying the growing dict at every gate
    # instead makes this quadratic, several seconds at this length.
    gates = [Gate.const(0)]
    for k in range(1, 20_000):
        gates += [Gate.const(k), Gate.add(len(gates) - 1, len(gates))]
    c = circuit(gates)
    start = time.perf_counter()
    rep = analyze_degrees(c)
    assert time.perf_counter() - start < 1.0
    assert (rep.total, rep.max_individual) == (1, 1)
    assert len(rep.individual) == 20_000


def test_degree_pass_work_cap_on_shared_gates():
    # x_{k+1} = x_k + (k + 1) with a side gate x_k * x_k: every link has
    # three uses, so the pass copies its growing dict at each of them and
    # merges it into the side gate's copy, quadratic work that the cap
    # stops (8k links copy or merge about 96 M entries).
    gates = [Gate.var(1)]
    for k in range(8_000):
        x = len(gates) - 1
        gates += [Gate.mul(x, x), Gate.const(k + 1), Gate.add(x, len(gates) + 1)]
    # A sum of 20k consts that 400 gates read: each copies its 20k-entry
    # dict and merges one entry, so the copies alone pass the cap.
    wide = [Gate.const(0)]
    for k in range(1, 20_000):
        wide += [Gate.const(k), Gate.add(len(wide) - 1, len(wide))]
    total = len(wide) - 1
    for k in range(400):
        wide += [Gate.const(k), Gate.add(total, len(wide))]
    for c in (circuit(gates), circuit(wide)):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"cap of {DEFAULT_EXHAUSTION_CAP} dict entries"):
            analyze_degrees(c)
        assert time.perf_counter() - start < 1.0


def test_formula_degree_bounded_by_gate_count():
    # Tree-shaped circuits: every gate feeds at most one later gate.
    rng = Rng(29, "formula")
    for i in range(200):
        r = rng.split(str(i))
        gates = [Gate.var(1)]
        used = set()
        for _ in range(r.randint(1, 10)):
            avail = [j for j in range(len(gates)) if j not in used]
            if len(avail) < 2:
                gates.append(Gate.var(1))
                continue
            lhs = avail[r.randrange(len(avail))]
            rhs = next(j for j in avail if j != lhs)
            used.update((lhs, rhs))
            gates.append(Gate.mul(lhs, rhs) if r.randrange(2) else Gate.add(lhs, rhs))
        c = circuit(gates)
        assert analyze_degrees(c).total <= len(c.gates)


def test_plug_and_unplug_roundtrip():
    c = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    plugged = plug_params(c, {1: -7})
    assert plugged.gates[1] == Gate.const(-7) and plugged.n_params == 0
    back = circuit(Gate.param(1) if g.op == "const" else g for g in plugged.gates)
    assert back == c
    assert plug_params(back, {1: -7}) == plugged


def test_plug_params_refuses_a_partial_mapping():
    c = circuit([Gate.param(1), Gate.param(2), Gate.param(3), Gate.mul(0, 1), Gate.mul(3, 2)])
    with pytest.raises(CircuitValidationError, match=r"no value for parameters \[1, 3\]"):
        plug_params(c, {2: 5})


def test_plug_params_refuses_unknown_parameters():
    c = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    with pytest.raises(CircuitValidationError, match=r"no parameters \[0, 2\] in the circuit"):
        plug_params(c, {1: 3, 2: 9, 0: 5})


def test_representation_size_dominates_gate_count():
    c = product_circuit()
    assert representation_size(c) >= len(c.gates)


def test_validate_is_idempotent_on_good_circuit():
    validate(product_circuit())


def test_serialize_writes_plugged_params_as_consts():
    c = plug_params(circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)]), {1: 5})
    text = serialize_circuit(c)
    assert "param" not in text and "g1 = const 5" in text
    back = parse_circuit(text)
    for x in range(-3, 4):
        assert naive_eval(back, (x,)) == naive_eval(c, (x,)) == 5 * x


def test_representation_size_counts_plugged_digits():
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    small = representation_size(plug_params(template, {1: 5}))
    huge = representation_size(plug_params(template, {1: 10**100}))
    assert huge - small == 8 * 100
    text = "g0 = var x1\ng1 = const 5\ng2 = mul g0 g1\noutput g2\n"
    assert small == 8 * len(text)


def test_analyze_degrees_runs_once_per_circuit_object(monkeypatch):
    calls = count_degree_passes(monkeypatch)
    c = product_circuit()
    assert analyze_degrees(c) is analyze_degrees(c)
    assert len(calls) == 1
    # Equal circuits are still distinct objects with reports of their own.
    assert analyze_degrees(product_circuit()) == analyze_degrees(c)
    assert len(calls) == 2


def test_serialize_keeps_its_text_on_the_circuit():
    c = product_circuit()
    text = serialize_circuit(c)
    assert text == PRODUCT_TEXT
    assert serialize_circuit(c) is text


def test_kept_text_is_not_part_of_equality_hash_or_repr():
    c = product_circuit()
    serialize_circuit(c)
    param_digits(c)
    fresh = product_circuit()
    assert c._text is not None and fresh._text is None
    assert c._param_digits is not None and fresh._param_digits is None
    assert fresh == c and hash(fresh) == hash(c) and repr(fresh) == repr(c)


def test_param_digits_sums_the_digits_of_each_param_use():
    # p1..p9 one digit each, p10..p12 two, and p10 written twice.
    gates = [Gate.var(1)] + [Gate.param(k) for k in list(range(1, 13)) + [10]]
    for i in range(1, len(gates)):
        gates.append(Gate.mul(len(gates) - 1, i))
    c = circuit(gates)
    assert param_digits(c) == 9 + 3 * 2 + 2
    zero = plug_params(c, dict.fromkeys(range(1, 13), 0))
    assert representation_size(c) - representation_size(zero) == 8 * param_digits(c)
    assert param_digits(zero) == 0


@pytest.mark.parametrize("roundtrip", [
    lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_a_serialized_circuit_survives_pickle_and_deepcopy(roundtrip):
    c = circuit([Gate.var(1), Gate.param(1), Gate.const(-7), Gate.mul(0, 1), Gate.add(3, 2)])
    text = serialize_circuit(c)
    copied = roundtrip(c)
    assert copied == c
    assert serialize_circuit(copied) == text
    assert parse_circuit(serialize_circuit(copied)) == c


def test_a_failed_serialization_keeps_no_text():
    # A constant past the int/str conversion limit cannot be written; the
    # second call fails as the first did instead of returning a kept text.
    c = circuit([Gate.var(1), Gate.const(10 ** sys.get_int_max_str_digits()), Gate.mul(0, 1)])
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            serialize_circuit(c)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert c._text is None


@pytest.mark.parametrize("parse", [parse_circuit, parse_bool_circuit])
def test_a_large_variable_index_is_refused_without_filling_memory(parse):
    # The naming check counts the names: a set of range(1, n + 1) holds
    # tens of MB at n = 10^6, and one 12-digit index would fill memory.
    tracemalloc.start()
    try:
        with pytest.raises(CircuitSyntaxError) as exc:
            parse(f"g0 = var x1\ng1 = var x{10**6}\noutput g1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "gap in variable naming: saw [1, 1000000], n_vars=1000000"
    assert peak < 1 << 20


# Decimal digits outside ASCII, which int() reads: Arabic-Indic and fullwidth.
SCRIPTS = {"arabic-indic": 0x0660, "fullwidth": 0xFF10}


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
@pytest.mark.parametrize("template, line, col", [
    ("g{0} = var x1\noutput g0\n", 1, len("g") + 1),
    ("g0 = var x{1}\noutput g0\n", 1, len("g0 = var x") + 1),
    ("g0 = param p{1}\noutput g0\n", 1, len("g0 = param p") + 1),
    ("g0 = const -{7}\noutput g0\n", 1, len("g0 = const -") + 1),
    ("g0 = var x1\ng1 = mul g0 g{0}\noutput g1\n", 2, len("g1 = mul g0 g") + 1),
    ("g0 = var x1\noutput g{0}\n", 2, len("output g") + 1),
], ids=["gate-id", "var-index", "param-index", "const", "operand", "output-id"])
def test_numbers_are_ascii_digits(template, line, col, script):
    # {d} is the digit d: in ASCII the text parses, in another script the
    # line is refused at that digit.
    parse_circuit(template.format(*"0123456789"))
    text = template.format(*(chr(script + d) for d in range(10)))
    with pytest.raises(CircuitSyntaxError, match="cannot parse statement") as exc:
        parse_circuit(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("read", (parse_circuit, parse_bool_circuit), ids=("ac", "bc"))
@pytest.mark.parametrize("brk", LINE_BREAKS.values(), ids=LINE_BREAKS)
def test_statements_end_lines_at_newline_only(read, brk):
    # Only "\n" ends a line; another line break joins two statements into
    # one, which is refused at that break.
    with pytest.raises(CircuitSyntaxError, match="cannot parse statement") as exc:
        read(f"g0 = var x1{brk}output g0\n")
    assert (exc.value.line, exc.value.col) == (1, len("g0 = var x1") + 1)


@pytest.mark.parametrize("read", (parse_circuit, parse_bool_circuit), ids=("ac", "bc"))
@pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
def test_statements_strip_ascii_whitespace_only(read, space):
    # Indents, trailing blanks and CRLF line ends are ASCII whitespace;
    # another space is part of the statement, refused at that space.
    read(" \tg0 = var x1 \t# x1\r\n\v\noutput g0 \r\n")
    for text, line, col in (
        (f"{space}g0 = var x1\noutput g0\n", 1, 1),
        (f"  g0 = var x1{space}\noutput g0\n", 1, len("  g0 = var x1") + 1),
        (f"g0 = var x1\noutput g0{space}\n", 2, len("output g0") + 1),
        (f"g0 = var x1\n{space}\noutput g0\n", 2, 1),
    ):
        with pytest.raises(CircuitSyntaxError, match="cannot parse statement") as exc:
            read(text)
        assert (exc.value.line, exc.value.col) == (line, col)
