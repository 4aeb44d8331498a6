"""Property tests: degree analysis, the text format and evaluation on
circuits with var, param and const gates, checked against the recursive
oracles; the parser's one-pass read against its line parser on edited
texts; univariate extraction against evaluation and against the monomial
expansion; the root scans against the guarded brute scan; the root codec's
round trip and surjectivity; the agreement of the three PIT testers; amplify
against its round-by-round definition; the seeds of split streams; the
gates that parsing, differences and padding build against the dataclass's
own; and the bit helpers and the packed hitting-set encoding against their
per-bit definitions."""

import pytest

pytest.importorskip("hypothesis")

import copy
import importlib
import pickle
import random
import re
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from szpit.avoid import (
    ExhaustiveOracle,
    _member_gates,
    amplify,
    desk_schedule,
    encode_hitting_set_bits,
)
from szpit.boolfunc import BoolFunc, int_to_bit_str
from szpit.circuit import (
    Gate,
    analyze_degrees,
    circuit,
    pad_vars,
    parse_circuit,
    plug_params,
    representation_size,
    serialize_circuit,
)
from szpit.classes import linear_class, monomial_class, multilinear_class
from szpit.codec import (
    RootCode,
    SZContext,
    all_codes,
    code_space_size,
    cube_roots,
    decode_code,
    encode_root,
    pack_code,
    restrict,
    unpack_code,
)
from szpit.config import DEFAULT_BITLEN_GUARD
from szpit.errors import (
    BitLengthGuardError,
    CircuitSyntaxError,
    DegreeBoundError,
    DimensionMismatchError,
)
from szpit.evaluator import SlotProgram, _interpret, _prepare, eval_arithmetic, eval_gates, keep
from szpit.hitting import HittingSet
from szpit.pit import (
    NONZERO,
    ZERO_ON_CUBE,
    difference_circuit,
    equiv_test,
    pit_cube_brute,
    pit_random,
    pit_with_hitting_set,
)
from szpit.rng import Rng
from szpit.unipoly import UniPoly, enumerate_roots, eval_unipoly, extract_unipoly, roots_in_cube

from genckt import random_circuit, random_circuit_bounded
from helpers import times_line_factors
from oracles import (
    amplify_by_doubling,
    amplify_steps,
    bits_to_int,
    degree_oracle,
    derive_seed,
    encode_hitting_set_per_bit,
    expansion_coeffs,
    expansion_is_zero,
    int_to_bits,
    longest_walk_per_bit,
    naive_eval,
    pack_code_mixed_radix,
    value_numbered_steps,
)

# Derandomized and without an example database, so every run draws the
# same examples and leaves no files behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

SMALL = st.integers(-20, 20)


@st.composite
def circuits(draw):
    """A circuit whose var, param and const inputs sit anywhere in the gate
    order, with up to six add/mul gates over strictly earlier gates."""
    n_vars = draw(st.integers(0, 3))
    n_params = draw(st.integers(0, 3))
    n_consts = draw(st.integers(0 if n_vars + n_params else 1, 3))
    inputs = [Gate.var(j) for j in range(1, n_vars + 1)]
    inputs += [Gate.param(k) for k in range(1, n_params + 1)]
    inputs += [Gate.const(draw(st.integers(-10**30, 10**30))) for _ in range(n_consts)]
    inputs = draw(st.permutations(inputs))
    order = draw(st.permutations(["in"] * (len(inputs) - 1) + ["op"] * draw(st.integers(0, 6))))
    gates = [inputs[0]]
    pending = iter(inputs[1:])
    for slot in order:
        if slot == "in":
            gates.append(next(pending))
        else:
            lhs = draw(st.integers(0, len(gates) - 1))
            rhs = draw(st.integers(0, len(gates) - 1))
            gates.append(Gate.mul(lhs, rhs) if draw(st.booleans()) else Gate.add(lhs, rhs))
    return circuit(gates)


@st.composite
def circuits_with_inputs(draw):
    c = draw(circuits())
    x = tuple(draw(SMALL) for _ in range(c.n_vars))
    p = tuple(draw(SMALL) for _ in range(c.n_params))
    return c, x, p


@PROPERTY
@given(circuits())
def test_degrees_match_the_oracle(c):
    total, individual = degree_oracle(c)
    rep = analyze_degrees(c)
    assert rep.total == total
    assert rep.individual == {u: d for u, d in individual.items() if d > 0}
    assert rep.max_individual == max(rep.individual.values())


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 2), st.integers(1, 12), st.data())
def test_bounded_degree_pass_matches_the_oracle(seed, n, n_params, extra, data):
    # Single-use consts get no key, only the bound K; whether K decides or
    # the per-input reference runs, the report is the oracle's.  Cutting
    # the circuit at a drawn gate makes that gate the output, often one
    # that reads constants only.  Half the draws then append
    # (a + c1)(b + c2) with fresh consts for drawn gates a and b: K sums
    # there, to 2 or more, so the reference runs whenever no keyed input
    # reaches K.
    c = random_circuit(Rng(seed, "bounded-degrees"), n, extra, p_const=0.4, n_params=n_params)
    gates = list(c.gates[:data.draw(st.integers(1, len(c.gates)))])
    if data.draw(st.booleans()):
        a, b = (data.draw(st.integers(0, len(gates) - 1)) for _ in range(2))
        t = len(gates)
        gates += [Gate.const(3), Gate.add(a, t), Gate.const(-2), Gate.add(b, t + 2),
                  Gate.mul(t + 1, t + 3)]
    c = circuit(gates)
    total, individual = degree_oracle(c)
    rep = analyze_degrees(c)
    assert (rep.total, rep.max_individual) == (total, max(individual.values()))
    assert rep.individual == {u: d for u, d in individual.items() if d > 0}


@PROPERTY
@given(circuits())
def test_text_format_roundtrips(c):
    assert parse_circuit(serialize_circuit(c)) == c


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 2), st.integers(0, 40))
def test_kept_text_is_the_text_of_a_fresh_equal_circuit(seed, n, n_params, extra):
    c = random_circuit(Rng(seed, "kept-text"), n, extra, n_params=n_params)
    text = serialize_circuit(c)
    assert serialize_circuit(c) is text
    fresh = circuit(c.gates)
    assert fresh == c and fresh._text is None
    assert serialize_circuit(fresh) == text
    assert representation_size(c) == representation_size(fresh) == 8 * len(text.encode())
    assert parse_circuit(text) == c


circuit_mod = importlib.import_module("szpit.circuit")


def line_parse(text):
    """parse_circuit with its one-pass read switched off: the line parser."""
    with mock.patch.object(circuit_mod, "_canonical_gates", lambda text: None):
        return parse_circuit(text)


def parsed(parse, text):
    """The circuit, or the message, line and column of the syntax error."""
    try:
        return parse(text)
    except CircuitSyntaxError as e:
        return str(e), e.line, e.col


# Edits of a text's lines (the output line last).  Each takes the draw
# function and the lines and returns new lines.
def _at(draw, lines, extra=0):
    return draw(st.integers(0, max(0, len(lines) - 1 + extra)))


def _comment(draw, lines):
    i = _at(draw, lines, 1)
    kind = draw(st.sampled_from(["line", "after", "out"]))
    if kind == "line" or i == len(lines):
        return lines[:i] + [draw(st.sampled_from(["# note", "  #", "#output g0"]))] + lines[i:]
    if kind == "after":
        return lines[:i] + [lines[i] + draw(st.sampled_from([" # note", "#", "\t#g1 = var x1"]))] + lines[i + 1:]
    return lines[:i] + ["# " + lines[i]] + lines[i + 1:]


def _blank(draw, lines):
    i = _at(draw, lines, 1)
    return lines[:i] + [draw(st.sampled_from(["", " ", "\t \t"]))] + lines[i:]


def _pad(draw, lines):
    i = _at(draw, lines)
    pads = st.sampled_from(["", " ", "\t", "  "])
    return lines[:i] + [draw(pads) + lines[i] + draw(pads)] + lines[i + 1:]


def _double_space(draw, lines):
    i = _at(draw, lines)
    spaces = [m.start() for m in re.finditer(" ", lines[i])]
    if not spaces:
        return lines
    j = draw(st.sampled_from(spaces))
    return lines[:i] + [lines[i][:j] + draw(st.sampled_from(["  ", " \t"])) + lines[i][j:]] + lines[i + 1:]


# Arabic-Indic, Devanagari and fullwidth digits: int() reads them, and the
# grammar, in ASCII digits, refuses them.
DIGIT_SETS = ("\u0660", "\u0966", "\uff10")


def _unicode_digit(draw, lines):
    i = _at(draw, lines)
    digits = [m.start() for m in re.finditer("[0-9]", lines[i])]
    if not digits:
        return lines
    j = draw(st.sampled_from(digits))
    digit = chr(ord(draw(st.sampled_from(DIGIT_SETS))) + int(lines[i][j]))
    return lines[:i] + [lines[i][:j] + digit + lines[i][j + 1:]] + lines[i + 1:]


def _leading_zero(draw, lines):
    i = _at(draw, lines)
    spots = [m.end() for m in re.finditer("[gxp-]", lines[i])]
    if not spots:
        return lines
    j = draw(st.sampled_from(spots))
    return lines[:i] + [lines[i][:j] + "0" + lines[i][j:]] + lines[i + 1:]


def _swap(draw, lines):
    i, j = _at(draw, lines), _at(draw, lines)
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _renumber(draw, lines):
    gate_lines = [i for i, line in enumerate(lines) if re.match(r"g\d+ =", line)]
    if not gate_lines:
        return lines
    i = draw(st.sampled_from(gate_lines))
    m = re.match(r"g(\d+) =", lines[i])
    gid = int(m.group(1)) + draw(st.sampled_from([-1, 1, 2]))
    return lines[:i] + [f"g{gid}" + lines[i][m.end(1):]] + lines[i + 1:]


def _duplicate(draw, lines):
    i, j = _at(draw, lines), _at(draw, lines, 1)
    return lines[:j] + [lines[i]] + lines[j:]


BINARY_LINE = re.compile(r"g(\d+) = (add|mul) g(\d+) g(\d+)$")


def _bad_operand(draw, lines):
    # Point an add/mul operand at its own gate or a later one.
    binary = [i for i, line in enumerate(lines) if BINARY_LINE.match(line)]
    if not binary:
        return lines
    i = draw(st.sampled_from(binary))
    gid, op, lhs, rhs = BINARY_LINE.match(lines[i]).groups()
    bad = str(int(gid) + draw(st.integers(0, 2)))
    lhs, rhs = (bad, rhs) if draw(st.booleans()) else (lhs, bad)
    return lines[:i] + [f"g{gid} = {op} g{lhs} g{rhs}"] + lines[i + 1:]


def _output(draw, lines):
    last = len([line for line in lines if line.startswith("g")]) - 1
    kind = draw(st.sampled_from(["missing", "extra", "wrong", "trailing", "after"]))
    out = [i for i, line in enumerate(lines) if line.startswith("output")]
    if kind == "missing":
        return [line for i, line in enumerate(lines) if i not in out]
    if kind == "extra":
        return lines + [f"output g{last}"]
    if kind == "after":
        return lines + [f"g{last + 1} = var x1"]
    if not out:
        return lines
    i = out[-1]
    line = f"output g{draw(st.integers(0, last + 2))}" if kind == "wrong" else lines[i] + " g0"
    return lines[:i] + [line] + lines[i + 1:]


def _junk(draw, lines):
    i = _at(draw, lines, 1)
    return lines[:i] + [draw(st.sampled_from(["junk", "g = var x1", "g0 var x1"]))] + lines[i:]


# Only "\n" ends a line, for the line parser as for the fast path.  Every
# other splitlines separator stays in its line: before "\n" a "\r" is
# stripped as ASCII whitespace, so "\r\n" ends a line as ever; "\r", "\v"
# and "\f" are stripped at either end of a statement; and inside one, or
# anywhere for the non-ASCII separators, the statement is refused there.
SEPARATORS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029")


def _separator(draw, lines):
    # Joins a line to the next by another separator than "\n".
    i = _at(draw, lines)
    if i + 1 >= len(lines):
        return lines
    return lines[:i] + [lines[i] + draw(st.sampled_from(SEPARATORS)) + lines[i + 1]] + lines[i + 2:]


def _crlf(draw, lines):
    return [line + "\r" for line in lines]


LINE_EDITS = (
    _comment, _blank, _pad, _double_space, _unicode_digit, _leading_zero, _swap,
    _renumber, _duplicate, _bad_operand, _output, _junk, _separator, _crlf,
)


@st.composite
def circuit_texts(draw):
    """A genckt circuit with params, its canonical text, and that text
    after up to three edits; one text in ten also loses its final newline."""
    c = random_circuit(
        Rng(draw(st.integers(0, 2**32)), "parser"),
        n_vars=draw(st.integers(1, 3)),
        extra_gates=draw(st.integers(1, 8)),
        p_const=0.3,
        n_params=draw(st.integers(0, 2)),
    )
    canonical = serialize_circuit(c)
    lines = canonical.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        lines = draw(st.sampled_from(LINE_EDITS))(draw, lines)
    text = "\n".join(lines)
    return c, canonical, text if draw(st.integers(0, 9)) == 0 else text + "\n"


@settings(PROPERTY, max_examples=400)
@given(circuit_texts())
def test_parser_fast_path_matches_the_line_parser(case):
    # The one-pass read must accept every canonical text, so it cannot
    # silently leave everything to the line parser; on any text its result
    # must be the line parser's circuit or syntax error, located alike.
    c, canonical, text = case
    assert circuit_mod._canonical_gates(canonical) == list(c.gates)
    assert parse_circuit(canonical) == c
    assert parsed(parse_circuit, text) == parsed(line_parse, text)


def _moved(g: Gate, offset: int) -> Gate:
    # g placed after offset other gates, built by the dataclass __init__.
    if g.op in ("add", "mul"):
        return Gate(g.op, lhs=g.lhs + offset, rhs=g.rhs + offset)
    return Gate(g.op, g.name, g.value)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 12))
def test_built_gates_are_exact_gates_moved_by_their_offset(seed, n, extra):
    # The canonical parse, the difference circuit and padding build their
    # gates as mutable twins given the class Gate; each is an exact Gate,
    # equal, hash included, to its source gate moved by the known offset.
    c = random_circuit(Rng(seed, "builders"), n_vars=n, extra_gates=extra, p_const=0.3)
    t = len(c.gates)
    same = [_moved(g, 0) for g in c.gates]
    tail = [Gate("const", value=-1), Gate("mul", lhs=2 * t, rhs=2 * t - 1),
            Gate("add", lhs=t - 1, rhs=2 * t + 1)]
    cases = (
        (parse_circuit(serialize_circuit(c)).gates, same),
        (difference_circuit(c, c).gates, same + [_moved(g, t) for g in c.gates] + tail),
        (pad_vars(c, n + 2).gates, [Gate("var", n + 1), Gate("var", n + 2)]
         + [_moved(g, 2) for g in c.gates]),
    )
    for got, want in cases:
        assert len(got) == len(want)
        for g, h in zip(got, want):
            assert type(g) is Gate and g == h and hash(g) == hash(h)


NON_ASCII_DIGITS = st.characters(categories=["Nd"]).filter(lambda ch: not ch.isascii())


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2), st.data())
def test_a_non_ascii_digit_is_refused_on_its_line(seed, n_vars, extra, n_params, data):
    c = random_circuit(Rng(seed, "digits"), n_vars=n_vars, extra_gates=extra, p_const=0.3,
                       n_params=n_params)
    text = serialize_circuit(c)
    j = data.draw(st.sampled_from([m.start() for m in re.finditer("[0-9]", text)]))
    edited = text[:j] + data.draw(NON_ASCII_DIGITS) + text[j + 1:]
    with pytest.raises(CircuitSyntaxError, match="cannot parse statement") as exc:
        parse_circuit(edited)
    assert exc.value.line == text.count("\n", 0, j) + 1


def test_parser_fast_path_reads_the_golden_canonical_text():
    text = (Path(__file__).parent / "golden" / "lattice.canonical.ac").read_text()
    gates = circuit_mod._canonical_gates(text)
    assert gates is not None
    assert circuit(gates) == line_parse(text)


@PROPERTY
@given(circuits_with_inputs(), st.data())
def test_params_per_evaluation_equal_plugged_params(case, data):
    # Per evaluation, pk is bit k - 1 of packed params R, as if that bit
    # were plugged for good.  Params of any other integer value enter
    # only through plug_params, and the checked evaluator then agrees
    # with the oracle.
    c, x, p = case
    n = c.n_params
    R = data.draw(st.integers(0, (1 << n) - 1))
    bits = int_to_bits(R, n)
    by_bits = plug_params(c, dict(enumerate(bits, 1)))
    assert eval_gates(c, x, R) == eval_gates(by_bits, x) == naive_eval(c, x, bits)
    plugged = plug_params(c, dict(enumerate(p, 1)))
    assert plugged.n_params == 0
    assert eval_arithmetic(plugged, x, analyze_degrees(c).total) == naive_eval(c, x, p)


@PROPERTY
@given(circuits_with_inputs(), st.data())
def test_repeated_evaluation_matches_the_oracle(case, data):
    # The first call interprets; the second prepares the slot program,
    # which the later calls at R = 0 run (a param-free circuit takes only
    # R = 0), and any other R interprets.  A params tuple is refused and
    # leaves the program as it was.
    c, x, p = case
    n = c.n_params
    for _ in range(3):
        R = data.draw(st.integers(0, (1 << n) - 1))
        assert eval_gates(c, x, R) == naive_eval(c, x, int_to_bits(R, n))
        x = tuple(data.draw(SMALL) for _ in x)
    prog = c._program
    assert isinstance(prog, SlotProgram)
    with pytest.raises(TypeError):
        eval_gates(c, x, p)
    assert c._program is prog


def outcome(call, *args, **kw):
    """The value of one call, or the type and text of its error."""
    try:
        return call(*args, **kw)
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e), str(e)


# Small values keep every mul under the static bound; 40-bit values under
# a small guard put it out of reach, so those calls interpret.
VALUES = st.one_of(SMALL, st.integers(-(2**40), 2**40))
GUARDS = st.sampled_from([8, 64, 1 << 20])


@st.composite
def templates(draw):
    """``(kind, circuit)``: a random circuit ("random"); a template whose
    gates that read no variable are all affine in its params ("affine");
    one that also multiplies two params ("product"); or a long add-chain
    of distinct params, whose affine forms outgrow the cap ("chain")."""
    kind = draw(st.sampled_from(["random", "affine", "product", "chain"]))
    if kind == "random":
        return kind, draw(circuits())
    if kind == "chain":
        n = draw(st.integers(36, 40))
        gates = [Gate.param(k) for k in range(1, n + 1)] + [Gate.add(0, 1)]
        gates += [Gate.add(n + k - 2, k) for k in range(2, n)]
        gates += [Gate.var(1), Gate.mul(len(gates) - 1, len(gates))]
        return kind, circuit(gates)
    n_params = draw(st.integers(1, 3))
    gates = [Gate.param(k) for k in range(1, n_params + 1)]
    gates += [Gate.const(draw(SMALL)) for _ in range(draw(st.integers(1, 2)))]
    has_param = [g.op == "param" for g in gates]
    if kind == "product":
        gates.append(Gate.mul(draw(st.integers(0, n_params - 1)), draw(st.integers(0, n_params - 1))))
        has_param.append(True)
    for _ in range(draw(st.integers(1, 6))):
        lhs = draw(st.integers(0, len(gates) - 1))
        rhs = draw(st.integers(0, len(gates) - 1))
        affine = not (has_param[lhs] and has_param[rhs])
        gates.append(Gate.mul(lhs, rhs) if affine and draw(st.booleans()) else Gate.add(lhs, rhs))
        has_param.append(has_param[lhs] or has_param[rhs])
    first_var = len(gates)
    gates += [Gate.var(j) for j in range(1, draw(st.integers(1, 2)) + 1)]
    for _ in range(draw(st.integers(1, 4))):  # each reads a variable
        lhs = draw(st.integers(first_var, len(gates) - 1))
        rhs = draw(st.integers(0, len(gates) - 1))
        gates.append(Gate.mul(lhs, rhs) if draw(st.booleans()) else Gate.add(lhs, rhs))
    return kind, circuit(gates)


@st.composite
def call_sequences(draw):
    """A template's kind, the circuit and the calls to make on it:
    ``(x, how, R, guard)``, where ``how`` reuses the last packed params
    object ("same"), passes the new packed params R ("new") or an equal
    copy of the last ones ("copy")."""
    kind, c = draw(templates())
    hows = st.sampled_from(["same", "new", "copy"])
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        x = tuple(draw(VALUES) for _ in range(c.n_vars))
        R = draw(st.integers(0, (1 << c.n_params) - 1))
        calls.append((x, draw(hows), R, draw(GUARDS)))
    return kind, c, calls


@PROPERTY
@given(call_sequences())
def test_staged_evaluation_over_a_call_sequence(case):
    # Stage A runs once per packed R and is kept for the next call; every
    # call must still give the interpreter's value or error, which a fresh
    # copy of the circuit yields on its first call.  Stage B holds one
    # step per distinct value among the gates outside stage A, which
    # structural hashing counts; a chain past the form cap runs some of
    # its adds of params in stage B as well, beyond the gates that read a
    # variable.
    kind, c, calls = case
    packed = calls[0][2]
    for x, how, R, guard in calls:
        if how == "new":
            packed = R
        elif how == "copy":
            packed = int(str(packed))
        want = outcome(eval_gates, circuit(c.gates), x, packed, guard)
        assert outcome(eval_gates, c, x, packed, guard) == want
        if isinstance(want, int):
            assert want == naive_eval(c, x, int_to_bits(packed, c.n_params))
    steps = len(c._program.b_mul)
    if kind == "chain":
        reads_var = []
        for g in c.gates:
            binary = g.op in ("add", "mul")
            reads_var.append(g.op == "var" or binary and (reads_var[g.lhs] or reads_var[g.rhs]))
        assert steps > value_numbered_steps(c, {i for i, r in enumerate(reads_var) if not r})
    else:
        # The second call prepares, under its guard.
        assert steps == value_numbered_steps(c, stage_a_gates(c, min(calls[1][3], 1 << 20)))


def stage_a_gates(c, fold_bits):
    """The gates that preparation under a guard of ``fold_bits`` puts in
    stage A, for a circuit whose forms stay under the form cap (at most
    four params suffice): consts, params, and each binary gate over two
    stage-A gates that does not multiply two param-reading values and
    whose static bit bound is at most ``fold_bits``."""
    in_a, reads_param, bits = [], [], []
    for g in c.gates:
        if g.op in ("add", "mul"):
            lhs, rhs = g.lhs, g.rhs
            b = bits[lhs] + bits[rhs] if g.op == "mul" else max(bits[lhs], bits[rhs]) + 1
            both = reads_param[lhs] and reads_param[rhs]
            in_a.append(in_a[lhs] and in_a[rhs] and b <= fold_bits and not (both and g.op == "mul"))
            reads_param.append(reads_param[lhs] or reads_param[rhs])
        else:
            b = g.value.bit_length()
            in_a.append(g.op != "var")
            reads_param.append(g.op == "param")
        bits.append(b)
    return {i for i, a in enumerate(in_a) if a}


NONZERO_SCALES = st.integers(-9, 9).filter(bool)


@st.composite
def bit_templates(draw):
    """``(circuit, extra runs)``: a template over 1 to 12 bit params
    whose live-outs are forms ``c + sum(a * p)`` built term by term, in a
    drawn order, each read by a gate that reads x1.  A "field" is
    ``c + s * sum(2^i * p_(j0+i))`` with s of either sign, one run; a
    "gap" has the same coefficients on every other param; "scales" puts
    equal coefficients on two or more adjacent params; "const" has no
    params.  A gap or scales form of length L is L runs, so L - 1 extra."""
    n_params = draw(st.integers(1, 12))
    gates = [Gate.var(1)] + [Gate.param(k) for k in range(1, n_params + 1)]

    def push(g):
        gates.append(g)
        return len(gates) - 1

    forms, extra = [], 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["field", "gap", "scales", "const"]))
        step = 2 if kind == "gap" else 1
        longest = (n_params - 1) // step + 1
        shortest = 2 if kind in ("gap", "scales") else 1
        if shortest > longest:  # too few params for a gap or equal scales
            kind, step, shortest = "field", 1, 1
        length = 0 if kind == "const" else draw(st.integers(shortest, longest))
        j0 = draw(st.integers(1, n_params - step * (length - 1))) if length else 1
        s = draw(NONZERO_SCALES)
        terms = [
            (j0 + step * i, s if kind == "scales" else s << i) for i in range(length)
        ]
        extra += length - 1 if kind in ("gap", "scales") else 0
        acc = push(Gate.const(draw(SMALL)))
        for k, a in draw(st.permutations(terms)):
            acc = push(Gate.add(acc, push(Gate.mul(k, push(Gate.const(a))))))
        forms.append(acc)
    out = push(Gate.mul(forms[0], 0))
    for f in forms[1:]:  # Horner in x1: every form is read by a stage-B gate
        out = push(Gate.add(push(Gate.mul(out, 0)), f))
    return circuit(gates), extra


@PROPERTY
@given(bit_templates(), st.data())
def test_packed_params_evaluate_as_their_bits(case, data):
    # Packed params R on a fresh circuit (the interpreter), on the
    # prepared one (the loop at R = 0) and on a kept copy (stage A reads
    # each run by shift and mask) give naive_eval's value on R's bits.
    # R = 0 and R with every bit set, so bits past each run's mask, are
    # always drawn.  Each run past a live-out's first is one the
    # template built.
    c, extra = case
    n = c.n_params
    kept = circuit(c.gates)
    keep(kept)
    draws = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4)
    for packed in [0, (1 << n) - 1, *data.draw(draws)]:
        x = (data.draw(SMALL),)
        bits = tuple(packed >> k & 1 for k in range(n))
        want = naive_eval(c, x, bits)
        assert eval_gates(circuit(c.gates), x, packed) == want
        assert eval_gates(c, x, packed) == want
        assert eval_gates(kept, x, packed) == want
    assert sum(len(runs) - 1 for runs in c._program.runs if runs) == extra
    for bad in (-1, 1 << n, -(1 << (n + 3)), 1 << (n + 3)):
        for ckt in (circuit(c.gates), c):
            with pytest.raises(DimensionMismatchError, match="packed params"):
                eval_gates(ckt, (1,), bad)


@st.composite
def kept_call_sequences(draw):
    """A genckt circuit over 0 to 4 params, or an avoid class template; the
    guard that prepares it; and calls ``(x, R, guard)``.  R comes from 0
    and a few drawn values, so calls take both the loop at R = 0 and the
    interpreter at other R; each guard is the preparing one or a
    stricter one."""
    if draw(st.booleans()):
        r = Rng(draw(st.integers(0, 2**32)), "kept")
        c = random_circuit(r, n_vars=r.randint(1, 3), extra_gates=r.randint(1, 30),
                           const_bits=12, n_params=r.randint(0, 4))
    else:
        c = circuit(_member_gates(desk_schedule(draw(st.integers(0, 2)))).gates)
    prep = draw(GUARDS)
    Rs = st.sampled_from([0, *draw(st.lists(st.integers(0, (1 << c.n_params) - 1),
                                            min_size=1, max_size=3))])
    guards = st.sampled_from([g for g in (8, 64, 1 << 20) if g <= prep])
    calls = [
        (tuple(draw(VALUES) for _ in range(c.n_vars)), draw(Rs), draw(guards))
        for _ in range(draw(st.integers(2, 6)))
    ]
    return c, prep, calls


@PROPERTY
@given(kept_call_sequences())
def test_compiled_loop_and_interpreter_agree(case):
    # The same circuit kept (compiled), prepared only (the loop at R = 0)
    # and interpreted gives the same value or the same guard error on
    # every call; a call past the static bound interprets on every path.
    c, prep, calls = case
    compiled, loop = circuit(c.gates), circuit(c.gates)
    keep(compiled, prep)
    object.__setattr__(loop, "_program", _prepare(loop, prep))
    assert compiled._program.run is not None and loop._program.run is None
    for x, R, guard in calls:
        want = outcome(_interpret, c, x, R, guard)
        assert outcome(eval_gates, compiled, x, R, guard) == want
        assert outcome(eval_gates, loop, x, R, guard) == want
        if not isinstance(want, int):
            assert want[0] is BitLengthGuardError


# 4,772 digits, past int -> str's default limit of 4,300.
HUGE = 3**10000

TEMPLATES = [
    lambda: _member_gates(desk_schedule(0)),
    lambda: _member_gates(desk_schedule(2)),
    lambda: multilinear_class(2, d=2).template,
    lambda: linear_class(3).template,
    lambda: monomial_class(2).template,
]


@st.composite
def kernel_cases(draw):
    """A circuit to keep and the calls ``(x, R)`` on it.  The base is a
    genckt circuit over 1 to 4 params, an avoid template or a builtin
    class template; its output gains x_j times a form
    ``c + s * sum(2^i * p_(j0+1+i)) + t * p_b`` with c != 0 (sometimes
    past 4,300 digits), |s| > 1 and b past the end of the first run, so
    the form has an extra run; sometimes also x_j times a constant past
    4,300 digits.  When "wide", the circuit has 70 params and the form
    reads params past the 64th.  Each R is used at 2 to 4 points in a
    row: 0, every bit set, and drawn values."""
    kind = draw(st.sampled_from(["genckt", "template"]))
    if kind == "genckt":
        r = Rng(draw(st.integers(0, 2**32)), "kernel")
        base = random_circuit(r, n_vars=r.randint(1, 3), extra_gates=r.randint(1, 12),
                              const_bits=12, n_params=r.randint(1, 4))
    else:
        base = draw(st.sampled_from(TEMPLATES))()
    wide = draw(st.booleans())
    n_params = 70 if wide else max(base.n_params, 3)
    gates = list(base.gates) + [Gate.param(k) for k in range(base.n_params + 1, n_params + 1)]
    first = {g.name: i for i, g in enumerate(gates) if g.op == "param"}

    def push(g):
        gates.append(g)
        return len(gates) - 1

    out = len(base.gates) - 1
    length = draw(st.integers(1, min(3, n_params - 2)))
    j0 = draw(st.integers(60 if wide else 0, n_params - length - 2))
    b = draw(st.integers(j0 + length + 1, n_params - 1))
    scale = draw(st.integers(2, 9)) * draw(st.sampled_from([1, -1]))
    terms = [(j0 + i, scale << i) for i in range(length)] + [(b, draw(NONZERO_SCALES))]
    acc = push(Gate.const(draw(st.one_of(SMALL.filter(bool), st.sampled_from([HUGE, -HUGE])))))
    for j, a in draw(st.permutations(terms)):
        acc = push(Gate.add(acc, push(Gate.mul(first[j + 1], push(Gate.const(a))))))
    x = draw(st.integers(0, base.n_vars - 1))
    out = push(Gate.add(out, push(Gate.mul(x, acc))))
    if draw(st.booleans()):
        out = push(Gate.add(push(Gate.mul(push(Gate.const(HUGE)), x)), out))
    c = circuit(gates)
    calls = []
    for R in [0, (1 << n_params) - 1, *draw(st.lists(st.integers(0, (1 << n_params) - 1),
                                                     min_size=1, max_size=2))]:
        for _ in range(draw(st.integers(2, 4))):
            calls.append((tuple(draw(VALUES) for _ in range(c.n_vars)), R))
    return c, calls


@PROPERTY
@given(kernel_cases())
def test_kept_programs_match_the_interpreter_and_the_oracle(case):
    # keep compiles the program, which has a live-out with c != 0 and
    # |s| > 1 on its first run, and a live-out of more than one run;
    # eval_gates calls it once for every call the static bound admits,
    # and gives the interpreter's value or guard error, and naive_eval's
    # value, on every call.
    c, calls = case
    keep(c)
    prog = c._program
    assert any(const and runs and abs(runs[0][0]) > 1 for const, runs in zip(prog.live, prog.runs))
    assert any(len(runs) > 1 for runs in prog.runs)
    run, ran = prog.run, []
    prog.run = lambda *args: ran.append(args) or run(*args)
    for x, R in calls:
        want = outcome(_interpret, c, x, R, DEFAULT_BITLEN_GUARD)
        assert outcome(eval_gates, c, x, R) == want
        if isinstance(want, int):
            assert want == naive_eval(c, x, int_to_bits(R, c.n_params))
        else:
            assert want[0] is BitLengthGuardError
        w = max([v.bit_length() for v in x] + [min(R, 1)])
        if prog.mul_degree * w + prog.mul_bits <= DEFAULT_BITLEN_GUARD:
            assert ran.pop() == (R, *x)
        assert not ran


@st.composite
def duplicated_circuits(draw):
    """A genckt circuit over 1 to 3 vars and 0 to 4 params, then values
    it computes twice, each added into the output: a const value it holds
    (or a small one) in two const gates, times a var on either side; a
    binary gate repeated with its operands swapped; and an affine form in
    the params built twice, its terms in two drawn orders, times a var on
    either side.  A form puts ``s * 2^i`` (one run) or s (one run a
    param) on adjacent params or on every other one (a run a param), so
    multi-run forms, with ``extra`` runs, are drawn too.  The sum plus a
    var comes last twice, the output with its operands swapped, so every
    circuit repeats at least one stage-B step."""
    r = Rng(draw(st.integers(0, 2**32)), "numbered")
    n_vars, n_params = r.randint(1, 3), r.randint(0, 4)
    base = random_circuit(r, n_vars=n_vars, extra_gates=r.randint(1, 20),
                          const_bits=12, n_params=n_params)
    gates = list(base.gates)

    def push(g):
        gates.append(g)
        return len(gates) - 1

    out = len(gates) - 1
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["const", "commute", "form"]))
        x = draw(st.integers(0, n_vars - 1))
        binary = [g for g in gates if g.op in ("add", "mul")]
        if kind == "commute" and binary:
            g = draw(st.sampled_from(binary))
            probe = push(Gate.mul(g.rhs, g.lhs) if g.op == "mul" else Gate.add(g.rhs, g.lhs))
        elif kind != "form" or not n_params:
            v = draw(st.sampled_from([g.value for g in gates if g.op == "const"] or [7]))
            probe = push(Gate.add(push(Gate.mul(x, push(Gate.const(v)))),
                                  push(Gate.mul(push(Gate.const(v)), x))))
        else:
            step = draw(st.sampled_from([1, 2]))
            length = draw(st.integers(1, (n_params - 1) // step + 1))
            j0 = draw(st.integers(1, n_params - step * (length - 1)))
            s, doubling = draw(NONZERO_SCALES), draw(st.booleans())
            terms = [(j0 + step * i, s << i if doubling else s) for i in range(length)]
            const = draw(SMALL)
            built = []
            for order in (terms, draw(st.permutations(terms))):
                acc = push(Gate.const(const))
                for k, a in order:
                    param = n_vars + k - 1
                    acc = push(Gate.add(acc, push(Gate.mul(param, push(Gate.const(a))))))
                built.append(acc)
            probe = push(Gate.add(push(Gate.mul(x, built[0])), push(Gate.mul(built[1], x))))
        out = push(Gate.add(out, probe))
    x = draw(st.integers(0, n_vars - 1))
    push(Gate.add(out, x))
    push(Gate.add(x, out))
    return circuit(gates)


@PROPERTY
@given(duplicated_circuits(), st.data())
def test_value_numbering_keeps_every_value_and_guard_error(c, data):
    # Compiled, loop and interpreter agree on every value and guard error,
    # and so do a pickled and a deep-copied program; stage B holds one
    # step per distinct value (the oracle's count), which is fewer than
    # the gates outside stage A, as every circuit drawn repeats a step.
    prep = data.draw(GUARDS)
    compiled, loop = circuit(c.gates), circuit(c.gates)
    keep(compiled, prep)
    object.__setattr__(loop, "_program", _prepare(loop, prep))
    assert compiled._program.run is not None and loop._program.run is None
    stage_a = stage_a_gates(c, min(prep, 1 << 20))
    unnumbered = sum(g.op in ("add", "mul") and i not in stage_a for i, g in enumerate(c.gates))
    assert len(loop._program.b_mul) == value_numbered_steps(c, stage_a) < unnumbered
    copies = [pickle.loads(pickle.dumps(compiled)), copy.deepcopy(loop)]
    assert all(isinstance(k._program, SlotProgram) for k in copies)
    guards = st.sampled_from([g for g in (8, 64, 1 << 20) if g <= prep])
    for _ in range(data.draw(st.integers(2, 6))):
        x = tuple(data.draw(VALUES) for _ in range(c.n_vars))
        R = data.draw(st.integers(0, (1 << c.n_params) - 1))
        guard = data.draw(guards)
        want = outcome(_interpret, c, x, R, guard)
        for ckt in (compiled, loop, *copies):
            assert outcome(eval_gates, ckt, x, R, guard) == want
        if isinstance(want, int):
            assert want == naive_eval(c, x, int_to_bits(R, c.n_params))
        else:
            assert want[0] is BitLengthGuardError


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 2), SMALL)
def test_extraction_agrees_with_evaluation(seed, slack, u):
    # Any degree bound at or above the syntactic degree in x1 is exact; one
    # below it is refused.
    c = random_circuit_bounded(Rng(seed, "unipoly"), n_vars=1, max_individual=8, extra_gates=10)
    assume(c is not None)
    x_degree = degree_oracle(c)[1]["x1"]
    p = extract_unipoly(c, x_degree + slack)
    assert eval_unipoly(p, u) == eval_gates(c, (u,))
    with pytest.raises(DegreeBoundError, match=f"syntactic degree {x_degree} in x > bound"):
        extract_unipoly(c, x_degree - 1)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(0, 2))
def test_extraction_matches_the_monomial_expansion(seed, slack):
    # Mul gates with a constant operand scale a row; the expansion
    # multiplies monomials out, so a wrong scalar row shows as a wrong
    # coefficient.
    c = random_circuit_bounded(Rng(seed, "unipoly-rows"), n_vars=1, max_individual=8,
                               extra_gates=10)
    assume(c is not None)
    d = degree_oracle(c)[1]["x1"] + slack
    assert extract_unipoly(c, d).coeffs == expansion_coeffs(c, d)


@st.composite
def scalar_heavy_circuits(draw):
    """``(c, x_degree)``: a univariate circuit whose gates mostly read no
    x, so long const-only subcircuits feed the gates that read it; in
    about a third of draws the output itself reads no x.  Operands are
    picked so that degrees stay within 6 and values within about 200
    bits."""
    gates, degs, bits = [Gate.var(1)], [1], [1]

    def put(g, e, b):
        gates.append(g)
        degs.append(e)
        bits.append(b)

    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("const", "const", "add", "mul")))
        if kind == "const":
            v = draw(SMALL)
            put(Gate.const(v), 0, v.bit_length())
            continue
        scalars = [i for i, e in enumerate(degs) if e == 0]
        lhs = draw(st.sampled_from(scalars or [0]))
        rhs = draw(st.sampled_from(range(len(gates))))
        e = max(degs[lhs], degs[rhs]) if kind == "add" else degs[lhs] + degs[rhs]
        b = max(bits[lhs], bits[rhs]) + 1 if kind == "add" else bits[lhs] + bits[rhs]
        if e <= 6 and b <= 200:
            put(Gate.add(lhs, rhs) if kind == "add" else Gate.mul(lhs, rhs), e, b)
    scalar_out = draw(st.integers(0, 2)) == 0
    pool = [i for i, e in enumerate(degs) if (e == 0) == scalar_out]
    if not pool:
        put(Gate.const(draw(SMALL)), 0, 5)
        pool = [len(gates) - 1]
    lhs, rhs = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    if degs[lhs] + degs[rhs] <= 6 and draw(st.booleans()):
        put(Gate.mul(lhs, rhs), degs[lhs] + degs[rhs], 0)
    else:
        put(Gate.add(lhs, rhs), max(degs[lhs], degs[rhs]), 0)
    return circuit(gates), degs[-1]


@PROPERTY
@given(scalar_heavy_circuits(), st.integers(0, 2))
def test_extraction_keeps_degree_0_values_as_scalars(case, slack):
    # Sums and products of scalars stay scalars, a scalar added to a row
    # lands in its constant term and one multiplied scales it; the output,
    # at d = x_degree (0 when it reads no x) and above, is padded to d + 1
    # coefficients all the same.
    c, x_degree = case
    for d in (x_degree, x_degree + slack):
        assert extract_unipoly(c, d).coeffs == expansion_coeffs(c, d)


@st.composite
def const_chains_past_a_guard(draw):
    """``(c, guard, trip)``: x and gates reading it (x plus a const, x times
    a const) beside a const-only chain that squares, scales by a const or
    doubles its last value until a mul passes the guard, at gate ``trip``;
    a few more gates follow.  At x in SMALL no gate reading x comes near
    an 8-bit guard."""
    guard = draw(st.integers(8, 64))
    gates = [Gate.var(1)]

    def put(g):
        gates.append(g)
        return len(gates) - 1

    def beside_x():
        if draw(st.booleans()):
            c = put(Gate.const(draw(st.integers(-9, 9))))
            put(Gate.add(0, c) if draw(st.booleans()) else Gate.mul(0, c))

    v = draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1)))
    last = put(Gate.const(v))
    trip = None
    while trip is None:
        beside_x()
        step = draw(st.sampled_from(("square", "scale", "double")))
        if step == "double" and v.bit_length() < guard:
            last, v = put(Gate.add(last, last)), 2 * v
            continue
        if step == "square":
            last, v = put(Gate.mul(last, last)), v * v
        else:
            s = draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1)))
            last, v = put(Gate.mul(last, put(Gate.const(s)))), v * s
        if v.bit_length() > guard:
            trip = last
    for _ in range(draw(st.integers(0, 2))):
        beside_x()
    put(Gate.add(len(gates) - 1, last) if draw(st.booleans()) else Gate.mul(0, last))
    return circuit(gates), guard, trip


@PROPERTY
@given(const_chains_past_a_guard(), st.integers(0, 3), SMALL)
def test_const_chain_trips_the_guard_where_evaluation_does(case, d, u):
    # A scalar mul is checked by its own bit length, so extraction at any
    # degree bound raises at the same gate, with the same text, as the
    # interpreter at any x.
    c, guard, trip = case
    want = (BitLengthGuardError, f"gate {trip}: value exceeds {guard}-bit guard")
    assert outcome(_interpret, c, (u,), 0, guard) == want
    assert outcome(extract_unipoly, c, d, guard) == want


@st.composite
def codec_pool_restrictions(draw):
    """A circuit shaped like the codec benchmark's, L1 * L2 * S with
    L1 = s(x1 - x2) + c1, L2 = t(xi + x3 - c2) and
    S = (x1 + x2 + x3 - u)^2 + 1, restricted to a line of S_24^3."""
    gates = [Gate.var(1), Gate.var(2), Gate.var(3)]

    def put(g):
        gates.append(g)
        return len(gates) - 1

    s, t = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    c1, c2, u = draw(st.integers(-3, 3)), draw(st.integers(2, 6)), draw(st.integers(0, 69))
    i = draw(st.sampled_from((0, 1)))
    neg = put(Gate.const(-1))
    a, b = (0, 1) if s == 1 else (1, 0)
    l1 = put(Gate.add(put(Gate.add(a, put(Gate.mul(neg, b)))), put(Gate.const(c1))))
    l2 = put(Gate.add(put(Gate.add(i, 2)), put(Gate.const(-c2))))
    if t == -1:
        l2 = put(Gate.mul(put(Gate.const(-1)), l2))
    lin = put(Gate.add(put(Gate.add(put(Gate.add(0, 1)), 2)), put(Gate.const(-u))))
    sos = put(Gate.add(put(Gate.mul(lin, lin)), put(Gate.const(1))))
    put(Gate.mul(put(Gate.mul(l1, l2)), sos))
    k = draw(st.integers(1, 3))
    fixed = (draw(st.integers(0, 23)), draw(st.integers(0, 23)))
    return restrict(circuit(gates), k, fixed)


@PROPERTY
@given(codec_pool_restrictions())
def test_codec_restrictions_extract_as_their_expansion(r):
    p = extract_unipoly(r, 4)
    assert p.coeffs == expansion_coeffs(r, 4)
    assert roots_in_cube(p, 24) == tuple(u for u in range(24) if naive_eval(r, (u,)) == 0)


@st.composite
def root_scan_cases(draw):
    """``(p, q, guard)``.  p is c * x^j * prod(x - r) * f under a degree
    bound D at or above its degree: j zeros at the bottom, trailing zeros
    at the top, roots planted in and around S_q, coefficients of either
    sign, small or wide, and sometimes the zero polynomial.  The guard sits
    just at, above or below the scan's static bound
    w + D * bitlen(q - 1) + bitlen(D + 1), or well below it."""
    q = draw(st.integers(1, 40))
    if draw(st.integers(0, 9)) == 0:
        coeffs = [0]
    else:
        coeffs = [draw(st.one_of(SMALL, st.integers(-(2**40), 2**40)).filter(bool))]
        factors = [[0, 1]] * draw(st.integers(0, 3))
        factors += [[-r, 1] for r in draw(st.lists(st.integers(-2, q + 2), max_size=3))]
        factors.append(draw(st.lists(SMALL, min_size=1, max_size=3)))
        for f in factors:
            out = [0] * (len(coeffs) + len(f) - 1)
            for a, x in enumerate(coeffs):
                for b, y in enumerate(f):
                    out[a + b] += x * y
            coeffs = out
    coeffs += [0] * draw(st.integers(max(0, 2 - len(coeffs)), 3))
    p = UniPoly(tuple(coeffs))
    d = p.degree_bound
    bound = max(map(int.bit_length, coeffs)) + d * (q - 1).bit_length() + (d + 1).bit_length()
    guard = draw(st.sampled_from((bound + 1, bound, bound - 1, bound // 2, bound // 4)))
    return p, q, guard


def scanned_roots(p, q, guard):
    return [u for u in range(q) if eval_unipoly(p, u, guard) == 0]


@settings(PROPERTY, max_examples=400)
@given(root_scan_cases())
def test_root_scans_match_the_guarded_brute_scan(case):
    # Both scans give what evaluating every u under the guard gives, the
    # guard's error included; enumerate_roots stops after d roots, so it
    # evaluates no u past the d-th root.
    p, q, guard = case
    d = p.degree_bound
    assert outcome(roots_in_cube, p, q, bitlen_guard=guard) == outcome(
        lambda: tuple(scanned_roots(p, q, guard)))

    def first_d():
        roots = []
        for u in range(q):
            if eval_unipoly(p, u, guard) == 0:
                roots.append(u)
                if len(roots) == d:
                    break
        return tuple(roots + [q] * (d - len(roots)))

    assert outcome(enumerate_roots, p, q, bitlen_guard=guard) == outcome(first_d)


@st.composite
def codes_in_a_space(draw):
    """(code, n, d, q) with the code valid for (n, d, q); n = 1 (an empty
    rest) and q = 1 (a rest of zeros) included."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    q = draw(st.integers(1, 40))
    rest = tuple(draw(st.integers(0, q - 1)) for _ in range(n - 1))
    return RootCode(draw(st.integers(1, n)), draw(st.integers(1, d)), rest), n, d, q


@PROPERTY
@given(codes_in_a_space())
def test_pack_code_is_the_mixed_radix_index(case):
    code, n, d, q = case
    idx = pack_code(code, n, d, q)
    assert idx == pack_code_mixed_radix(code, n, d, q)
    assert 1 <= idx <= code_space_size(n, d, q)
    assert unpack_code(idx, n, d, q) == code


@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 2**32), st.integers(1, 3), st.data())
def test_codec_roundtrip_and_surjectivity(seed, n, data):
    # With a genuine non-root, decode inverts encode on the cube's roots and
    # the image of the whole code space covers them; without one, both
    # maps fall back to their defaults.  Random circuits seldom have two
    # roots on one line, so the line factors add codes of rank 2 and up.
    c = random_circuit_bounded(Rng(seed, "codec"), n_vars=n, max_individual=3, extra_gates=6)
    assume(c is not None)
    q = data.draw(st.integers(2, 8 if n < 3 else 6))
    line_roots = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3, unique=True))
    c = times_line_factors(c, data.draw(st.integers(1, n)), line_roots)
    d = max(1, analyze_degrees(c).max_individual)
    ctx = SZContext(c, n, d, q, tuple(data.draw(st.integers(-3, q + 3)) for _ in range(n)))
    roots = cube_roots(c, n, q)
    image = {decode_code(ctx, code) for code in all_codes(n, d, q)}
    if ctx.nonroot_ok:
        assert all(decode_code(ctx, encode_root(ctx, b)) == b for b in roots)
        assert set(roots) <= image
    else:
        assert image == {ctx.default_point()}
        assert {encode_root(ctx, b) for b in roots} <= {ctx.default_code()}


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 2), st.booleans(), st.integers(0, 2**16))
def test_pit_testers_agree(seed, n, zero, pit_seed):
    # The cube scan and a hitting set holding the whole cube, in the same
    # order, give the same verdict and first witness, and both match the
    # expansion; random sampling never calls a zero NonZero.  The zeros are
    # differences of a circuit with itself.
    c = random_circuit_bounded(Rng(seed, "pit"), n_vars=n, max_individual=3, extra_gates=8)
    assume(c is not None)
    if zero:
        c = difference_circuit(c, c)
    q = max(1, 2 * n * analyze_degrees(c).max_individual)
    cube = HittingSet(tuple(product(range(q), repeat=n)), n, q)
    brute = pit_cube_brute(c)
    scanned = pit_with_hitting_set(c, cube)
    sampled = pit_random(c, trials=40, seed=pit_seed)
    assert (brute.kind, brute.witness) == (scanned.kind, scanned.witness)
    assert (brute.kind == ZERO_ON_CUBE) == expansion_is_zero(c)
    if zero:
        assert brute.kind == ZERO_ON_CUBE and sampled.kind != NONZERO
    for verdict in (brute, scanned, sampled):
        if verdict.kind == NONZERO:
            assert all(0 <= v < q for v in verdict.witness)
            assert naive_eval(c, verdict.witness) != 0


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 2), st.booleans(), st.integers(0, 2**16))
def test_equiv_takes_its_bound_from_the_difference_circuit(seed, n, same, pit_seed):
    # The difference circuit's max individual degree is max(f's, g's, 1),
    # so the pass over it alone gives the bound the testers need; equiv_test
    # gives the verdict of each tester called with that bound.  Half the
    # pairs are a circuit and itself, so zero verdicts are covered too.
    rng = Rng(seed, "equiv")
    f = random_circuit_bounded(rng, n_vars=n, max_individual=3, extra_gates=8)
    g = f if same else random_circuit_bounded(rng, n_vars=n, max_individual=3, extra_gates=8)
    assume(f is not None and g is not None)
    d = max(analyze_degrees(f).max_individual, analyze_degrees(g).max_individual, 1)
    assert analyze_degrees(difference_circuit(f, g)).max_individual == d
    assert equiv_test(f, g, method="cube") == pit_cube_brute(difference_circuit(f, g))
    assert equiv_test(f, g, method="random", seed=pit_seed) == pit_random(
        difference_circuit(f, g), trials=40, seed=pit_seed
    )


@PROPERTY
@given(
    st.integers(-(2**70), 2**70),
    st.lists(st.text(max_size=6), max_size=4),
    st.lists(st.text(max_size=6), min_size=1, max_size=3),
)
def test_split_seeds_its_stream_by_the_whole_path(seed, path, splits):
    # A split extends its parent's hash state by one label; its stream
    # must be the one seeded by hashing the whole path from scratch.
    rng = Rng(seed, *path)
    for label in splits:
        rng = rng.split(label)
        path.append(label)
        want = random.Random(derive_seed(seed, *path))
        assert rng.labels == tuple(path)
        assert [rng.randrange(1 << 64) for _ in range(3)] == [want.randrange(1 << 64) for _ in range(3)]


# Stretch lengths up to the avoid schedules' (about 1,100), with the powers
# of two and the lengths one below them, where the doubling tables change.
STRETCHES = st.one_of(
    st.integers(1, 1100),
    st.integers(0, 10).map(lambda k: 1 << k),
    st.integers(1, 10).map(lambda k: (1 << k) - 1),
)


@PROPERTY
@given(st.integers(0, 6), STRETCHES, st.data())
def test_amplify_matches_the_round_by_round_oracle(m, t, data):
    # amplify_steps is O(t^2) per input, so a few inputs per g are checked.
    rows = st.integers(0, (1 << (m + 1)) - 1)
    g = BoolFunc(m, m + 1, tuple(data.draw(rows) for _ in range(1 << m)))
    h = amplify(g, t)
    for x in data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4)):
        assert int_to_bits(h(x), m + t) == amplify_steps(g, int_to_bits(x, m), t)[-1]


def _cycles_of_growing_length(size: int) -> list:
    # Nodes in blocks of 1, 2, 3, ... (the last one cut short), each a cycle.
    nxt, start, length = [], 0, 1
    while start < size:
        end = min(start + length, size)
        nxt += [*range(start + 1, end), start]
        start, length = end, length + 1
    return nxt


def _relabel(nxt: list, perm: list) -> list:
    # The same functional graph with node v renamed perm[v].
    out = [0] * len(nxt)
    for v, w in enumerate(nxt):
        out[perm[v]] = perm[w]
    return out


def _head_maps(m: int):
    """nxt on [2^m]: drawn freely; a permutation (no in-trees); one chain
    0 -> 1 -> ... -> 2^m - 1 into a self-loop, of depth 2^m - 1; or cycles
    of growing lengths.  The last two with their nodes renamed."""
    size = 1 << m
    chain = [min(v + 1, size - 1) for v in range(size)]
    shapes = st.sampled_from([chain, _cycles_of_growing_length(size)])
    return st.one_of(
        st.lists(st.integers(0, size - 1), min_size=size, max_size=size),
        st.permutations(range(size)),
        st.builds(_relabel, shapes, st.permutations(range(size))),
    )


@PROPERTY
@given(st.integers(0, 8), st.data())
def test_amplify_matches_the_doubling_oracle_on_every_row(m, data):
    # The cycle-seeded table against the doubling one, row for row.  The
    # stretches: 1, the chain's depth and its neighbours, 2^k and its
    # neighbours, and any length up to past the avoid schedules'.
    nxt = data.draw(_head_maps(m))
    fresh = data.draw(st.integers(0, (1 << (1 << m)) - 1))
    g = BoolFunc(m, m + 1, tuple(v | (fresh >> x & 1) << m for x, v in enumerate(nxt)))
    depth = (1 << m) - 1
    near = [1, depth - 1, depth, depth + 1, *((1 << k) + e for k in range(11) for e in (-1, 0, 1))]
    t = data.draw(st.one_of(st.sampled_from([t for t in near if t >= 1]), st.integers(1, 1100)))
    assert amplify(g, t).rows == amplify_by_doubling(g, t).rows


@PROPERTY
@given(st.integers(0, 4), st.integers(1, 5), st.data())
def test_walk_is_the_per_bit_walk(m, t, data):
    # The int walk against the tuple walk: the same depth, chain and
    # witnesses, packed, so ties go to the same endpoint.  Rows drawn from
    # a few values give g many preimages per node, and so many ties.
    values = data.draw(st.lists(st.integers(0, (2 << m) - 1), min_size=1, max_size=3))
    g = BoolFunc(m, m + 1, tuple(data.draw(st.sampled_from(values)) for _ in range(1 << m)))
    y = data.draw(st.integers(0, (1 << (m + t)) - 1))
    oracle = ExhaustiveOracle()
    k, ys, ws = longest_walk_per_bit(g, int_to_bits(y, m + t), t)
    want = (k, [bits_to_int(v) for v in ys], [bits_to_int(w) for w in ws])
    assert oracle.longest_walk(g, y, t) == want
    assert oracle.last_walk == want


# Ints of every size up to past the widest width drawn, of both signs.
ANY_INT = st.one_of(st.integers(), st.integers(-(2**820), 2**820))


@PROPERTY
@given(ANY_INT, st.integers(-2, 800))
def test_int_to_bits_is_the_per_bit_definition(v, width):
    # The text form, and the per-bit view the oracles read through it.
    want = tuple((v >> j) & 1 for j in range(width))
    assert int_to_bits(v, width) == want
    assert int_to_bit_str(v, width) == "".join(map(str, want))


@st.composite
def hitting_set_encodings(draw):
    """(H, schedule, width) for a desk schedule at m = 0..4.  H fits the
    schedule, or has one of r, n and q off by one, or the schedule's w is
    one bit short of |q|, so coordinates have bits past the low w; the
    width is r*n*w give or take a few bits, or far above it."""
    sched = desk_schedule(draw(st.integers(0, 4)))
    off = draw(st.sampled_from(["", "", "", "r", "n", "q", "w"]))
    if off == "w":
        sched = replace(sched, w=sched.w - 1)
    r, n, q = sched.r, sched.n, sched.q
    r += draw(st.sampled_from([-1, 1])) if off == "r" else 0
    n += draw(st.sampled_from([-1, 1])) if off == "n" else 0
    q += 1 if off == "q" else 0
    coord = st.integers(0, q - 1)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=r, max_size=r))
    width = sched.r * sched.n * sched.w + draw(st.one_of(st.integers(-3, 3), st.integers(0, 400)))
    return HittingSet(tuple(points), n, q), sched, width


@PROPERTY
@given(hitting_set_encodings())
def test_packed_encoding_is_the_per_bit_encoding(case):
    h_set, sched, width = case
    try:
        want = bits_to_int(encode_hitting_set_per_bit(h_set, sched, width))
    except DimensionMismatchError as e:
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(e))}$"):
            encode_hitting_set_bits(h_set, sched, width)
    else:
        y = encode_hitting_set_bits(h_set, sched, width)
        assert y == want and y.__class__ is int
