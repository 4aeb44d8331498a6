"""Identity testing: cube, random, hitting-set, equivalence."""

from itertools import product

import pytest

from szpit.circuit import ADD, MUL, VAR, Gate, analyze_degrees, circuit
from szpit.classes import multilinear_class
from szpit.config import DEFAULT_BITLEN_GUARD
from szpit.errors import DimensionMismatchError, PreconditionError
from szpit.evaluator import SlotProgram, _interpret, _prepare, eval_gates
from szpit.hitting import HittingSet, search_hitting_set
from szpit.pit import (
    NONZERO,
    PROBABLY_ZERO,
    ZERO_ON_CUBE,
    PitVerdict,
    difference_circuit,
    equiv_test,
    pit_cube_brute,
    pit_random,
    pit_with_hitting_set,
)
from szpit.rng import Rng

from genckt import random_circuit, random_circuit_bounded
from helpers import count_degree_passes
from oracles import expansion_is_zero


def product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def commutator_circuit():
    # x1*x2 - x2*x1, identically zero but syntactically nontrivial.
    return circuit([
        Gate.var(1), Gate.var(2), Gate.mul(0, 1), Gate.mul(1, 0),
        Gate.const(-1), Gate.mul(4, 3), Gate.add(2, 5),
    ])


def const_circuit(v):
    return circuit([Gate.const(v)])


def test_cube_product_first_witness():
    verdict = pit_cube_brute(product_circuit())
    assert verdict.kind == NONZERO and verdict.witness == (1, 1)


def test_cube_zero_circuits():
    assert pit_cube_brute(commutator_circuit()).kind == ZERO_ON_CUBE
    assert pit_cube_brute(const_circuit(0)).kind == ZERO_ON_CUBE


def test_random_verdicts():
    assert pit_random(const_circuit(0), trials=5, seed=1).kind == PROBABLY_ZERO
    v = pit_random(const_circuit(1), trials=1, seed=1)
    assert v.kind == NONZERO
    assert pit_random(commutator_circuit(), trials=40, seed=9).trials == 40


def test_random_nonzero_witness_reverifies():
    rng = Rng(301, "pit-witness")
    checked = 0
    for attempt in range(300):
        if checked >= 50:
            break
        c = random_circuit_bounded(rng.split(str(attempt)), n_vars=2, max_individual=3)
        if c is None:
            continue
        checked += 1
        v = pit_random(c, trials=20, seed=attempt)
        if v.kind == NONZERO:
            assert eval_gates(c, v.witness) != 0
    assert checked == 50


def test_hitting_set_method():
    h = HittingSet(((1, 1),), 2, 4)
    v = pit_with_hitting_set(product_circuit(), h)
    assert v.kind == NONZERO and v.witness == (1, 1)
    z = pit_with_hitting_set(const_circuit(0), HittingSet(((),), 0, 1))
    assert z.kind == ZERO_ON_CUBE and z.provenance == "hitting-set"


def test_hitting_set_caller_responsibility():
    # A bad hitting set for the product's class gives a zero verdict even
    # though the circuit is nonzero: picking H is the caller's burden.
    bad = HittingSet(((0, 0),), 2, 4)
    assert pit_with_hitting_set(product_circuit(), bad).kind == ZERO_ON_CUBE


def test_hitting_set_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pit_with_hitting_set(product_circuit(), HittingSet(((1,),), 1, 4))


def test_equiv_square_expansion():
    # (x1+1)^2 vs x1^2 + 2x1 + 1.
    lhs = circuit([Gate.var(1), Gate.const(1), Gate.add(0, 1), Gate.mul(2, 2)])
    rhs = circuit([
        Gate.var(1), Gate.mul(0, 0), Gate.const(2), Gate.mul(2, 0),
        Gate.const(1), Gate.add(1, 3), Gate.add(5, 4),
    ])
    assert equiv_test(lhs, rhs, method="cube").kind == ZERO_ON_CUBE
    assert equiv_test(lhs, rhs, method="random", trials=20, seed=4).kind == PROBABLY_ZERO


def test_equiv_distinct_variables():
    x1 = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 0)])  # x1^2 in two vars
    x2 = circuit([Gate.var(1), Gate.var(2), Gate.mul(1, 1)])  # x2^2
    assert equiv_test(x1, x2, method="cube").kind == NONZERO


def test_equiv_reflexive():
    c = product_circuit()
    assert equiv_test(c, c, method="cube").kind == ZERO_ON_CUBE


def test_equiv_cube_reaches_past_the_low_roots():
    # x1^2 - x1 vanishes on {0, 1}.  The difference circuit's bound d = 2
    # gives the cube side 2nd = 4, so the scan reaches the non-root 2.
    square = circuit([Gate.var(1), Gate.mul(0, 0)])
    verdict = equiv_test(square, circuit([Gate.var(1)]), method="cube")
    assert (verdict.kind, verdict.witness) == (NONZERO, (2,))


def test_equiv_dimension_check():
    with pytest.raises(DimensionMismatchError):
        difference_circuit(const_circuit(1), product_circuit())


def test_equiv_with_hitting_set():
    cls = multilinear_class(2, d=2)
    h = search_hitting_set(cls, q=8, r=13, seed=11)
    lhs = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1)])
    rhs = circuit([Gate.var(2), Gate.var(1), Gate.add(0, 1)])
    assert equiv_test(lhs, rhs, method="hs", hitting_set=h).kind == ZERO_ON_CUBE
    with pytest.raises(PreconditionError):
        equiv_test(lhs, rhs, method="hs")


def test_pit_refusals_name_the_bad_argument():
    with pytest.raises(PreconditionError, match=r"^trials must be >= 1$"):
        pit_random(product_circuit(), trials=0, seed=1)
    with pytest.raises(PreconditionError, match=r"^unknown method 'bogus'$"):
        equiv_test(product_circuit(), product_circuit(), method="bogus")


@pytest.mark.parametrize("method, passes", [("cube", 1), ("random", 1), ("hs", 0)])
def test_equiv_runs_at_most_one_degree_pass_per_verdict(monkeypatch, method, passes):
    # The bound comes from the difference circuit's own pass; the hitting
    # set needs no bound, so that method runs no pass at all.
    calls = count_degree_passes(monkeypatch)
    lhs = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1), Gate.mul(2, 2)])
    rhs = circuit([Gate.var(2), Gate.var(1), Gate.add(0, 1), Gate.mul(2, 2)])
    cube = HittingSet(tuple(product(range(8), repeat=2)), 2, 8)
    verdict = equiv_test(lhs, rhs, method=method, hitting_set=cube)
    assert verdict.kind != NONZERO
    assert len(calls) == passes


def test_methods_agree_with_cube_and_expansion():
    # On small circuits: random never contradicts the cube verdict, and the
    # cube verdict at q = 2nd matches the sparse-expansion ground truth.
    # Random circuits are almost never identically zero, so the zero side
    # uses constructed zeros (c - c) that are syntactically nontrivial.
    rng = Rng(303, "agreement")
    nonzero_seen = 0
    for attempt in range(400):
        if nonzero_seen >= 40:
            break
        c = random_circuit_bounded(
            rng.split(str(attempt)), n_vars=2, max_individual=3, extra_gates=6
        )
        if c is None or len(c.gates) > 10:
            continue
        cube = pit_cube_brute(c)
        assert (cube.kind == ZERO_ON_CUBE) == expansion_is_zero(c)
        if cube.kind == NONZERO:
            nonzero_seen += 1
            assert pit_random(c, trials=40, seed=attempt).kind == NONZERO
    assert nonzero_seen >= 40
    for attempt in range(15):
        c = random_circuit_bounded(
            rng.split(f"zero{attempt}"), n_vars=2, max_individual=1, extra_gates=4
        )
        if c is None:
            continue
        z = difference_circuit(c, c)
        assert pit_cube_brute(z).kind == ZERO_ON_CUBE
        assert expansion_is_zero(z)
        assert pit_random(z, trials=40, seed=attempt).kind == PROBABLY_ZERO


def test_single_sample_density():
    rng = Rng(307, "density")
    successes = trials = 0
    for attempt in range(600):
        if trials >= 100:
            break
        c = random_circuit_bounded(rng.split(str(attempt)), n_vars=2, max_individual=3)
        if c is None:
            continue
        if pit_cube_brute(c).kind == ZERO_ON_CUBE:
            continue
        trials += 1
        if pit_random(c, trials=1, seed=attempt).kind == NONZERO:
            successes += 1
    assert trials == 100
    assert successes / trials >= 0.4


def test_verdict_json_shape():
    v = pit_cube_brute(product_circuit())
    data = v.to_json()
    assert data["kind"] == NONZERO and data["witness"] == [1, 1]


def test_cube_add_commutator_with_const_mul_subtraction():
    # (x1 + x2) - (x2 + x1), the subtraction spelled as Const(-1) * Mul.
    c = circuit([
        Gate.var(1), Gate.var(2), Gate.add(0, 1), Gate.add(1, 0),
        Gate.const(-1), Gate.mul(4, 3), Gate.add(2, 5),
    ])
    assert pit_cube_brute(c).kind == ZERO_ON_CUBE


def test_equiv_x1_vs_x2():
    # The projections x1 and x2 as two-variable circuits.
    p1 = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1), Gate.const(-1),
                  Gate.mul(3, 1), Gate.add(2, 4)])  # (x1+x2) - x2
    p2 = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1), Gate.const(-1),
                  Gate.mul(3, 0), Gate.add(2, 4)])  # (x1+x2) - x1
    assert equiv_test(p1, p2, method="cube").kind == NONZERO


def linear_form(gates, coeffs):
    """Append c0 + c1 x1 + c2 x2 + c3 x3, one const gate per coefficient
    (x_j is gate j - 1); returns its gate."""
    acc = len(gates)
    gates.append(Gate.const(coeffs[0]))
    for j, c in enumerate(coeffs[1:]):
        gates += [Gate.const(c), Gate.mul(len(gates), j)]
        gates.append(Gate.add(acc, len(gates) - 1))
        acc = len(gates) - 1
    return acc


def sum_of_products(terms):
    """f = sum over terms of the product of their linear forms."""
    gates = [Gate.var(j) for j in (1, 2, 3)]
    total = None
    for forms in terms:
        prod = linear_form(gates, forms[0])
        for cs in forms[1:]:
            gates.append(Gate.mul(prod, linear_form(gates, cs)))
            prod = len(gates) - 1
        if total is not None:
            gates.append(Gate.add(total, prod))
        total = len(gates) - 1
    return circuit(gates)


def distributed(terms, offset):
    """f with each term's first form distributed over the product R of
    the others, c0 R + c1 (x1 R) + c2 (x2 R) + c3 (x3 R), terms summed in
    reverse; plus ``offset``, which makes the pair inequivalent."""
    gates = [Gate.var(j) for j in (1, 2, 3)]
    total = None
    for first, *rest in reversed(terms):
        r = linear_form(gates, rest[0])
        for cs in rest[1:]:
            gates.append(Gate.mul(r, linear_form(gates, cs)))
            r = len(gates) - 1
        gates += [Gate.const(first[0]), Gate.mul(len(gates), r)]
        for j, c in enumerate(first[1:]):
            acc = len(gates) - 1
            gates += [Gate.mul(j, r), Gate.const(c)]
            gates += [Gate.mul(len(gates) - 1, len(gates) - 2), Gate.add(acc, len(gates))]
        if total is not None:
            gates.append(Gate.add(total, len(gates) - 1))
        total = len(gates) - 1
    if offset:
        gates += [Gate.const(offset), Gate.add(total, len(gates))]
    return circuit(gates)


def interpreted_random_verdict(diff, trials, seed):
    """pit_random's verdict, by a scan that calls only the interpreter at
    the points of Rng(seed, "pit") in the cube of side 2nd."""
    q = 2 * diff.n_vars * analyze_degrees(diff).max_individual
    rng = Rng(seed, "pit")
    for point in rng.points(diff.n_vars, q, trials):
        if _interpret(diff, point, 0, DEFAULT_BITLEN_GUARD) != 0:
            return PitVerdict(NONZERO, witness=point, provenance="random")
    return PitVerdict(PROBABLY_ZERO, trials=trials, provenance="random")


@pytest.mark.parametrize("offset", [0, -4])
def test_random_equiv_of_a_distributed_pair_matches_an_interpreted_scan(offset):
    # The benchmark's PIT shape: f a sum of products of linear forms with
    # coefficients in -3..3, g its distributive rewrite.  The difference
    # repeats constants, products c * x_j and whole factors, which the
    # slot program numbers away; its verdicts must still be the
    # interpreter's, witness and trials included.
    rng = Rng(67, "pit-shape")
    terms = [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)] for _ in range(8)]
    f, g = sum_of_products(terms), distributed(terms, offset)
    for seed in range(4):
        want = interpreted_random_verdict(difference_circuit(f, g), 40, seed)
        assert equiv_test(f, g, method="random", trials=40, seed=seed) == want
        assert want.kind == (PROBABLY_ZERO if offset == 0 else NONZERO)
    diff = difference_circuit(f, g)
    assert pit_random(diff, 40, 0) == interpreted_random_verdict(diff, 40, 0)
    if offset == 0:  # 38 of the 40 calls ran the program
        assert isinstance(diff._program, SlotProgram)
    reads_var = []
    for gate in diff.gates:
        binary = gate.op in (ADD, MUL)
        reads_var.append(gate.op == VAR or binary and (reads_var[gate.lhs] or reads_var[gate.rhs]))
    var_steps = sum(r and gate.op != VAR for gate, r in zip(diff.gates, reads_var))
    steps = len(_prepare(diff, DEFAULT_BITLEN_GUARD).b_mul)
    assert steps < var_steps


def test_difference_is_the_circuit_of_its_gates():
    # The difference is assembled without circuit()'s checks; it must be
    # the circuit that circuit() makes of the same gates.
    rng = Rng(97, "difference")
    pairs = [(const_circuit(3), const_circuit(-2))]
    for _ in range(60):
        n = rng.randint(1, 4)
        pairs.append(tuple(random_circuit(rng, n, rng.randint(1, 12)) for _ in range(2)))
    for f, g in pairs:
        diff = difference_circuit(f, g)
        want = circuit(diff.gates)
        assert type(diff.gates) is tuple and diff == want
        assert (diff.n_vars, diff.n_params) == (want.n_vars, want.n_params) == (f.n_vars, 0)
        point = tuple(range(2, f.n_vars + 2))
        assert eval_gates(diff, point) == eval_gates(f, point) - eval_gates(g, point)
