"""Circuit IR: text format, validation, degree analysis."""

import time

import pytest

from szpit.circuit import (
    Circuit,
    Gate,
    analyze_degrees,
    circuit,
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
from helpers import count_degree_passes
from oracles import degree_oracle, naive_eval

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


def test_parse_output_must_be_last_gate():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("g0 = var x1\ng1 = var x2\noutput g0")


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
