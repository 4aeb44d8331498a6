"""Degree-bounded evaluation."""

import pytest

from szpit.circuit import Gate, circuit, plug_params
from szpit.errors import BitLengthGuardError, DegreeBoundError, DimensionMismatchError
from szpit.evaluator import Assignment, SlotProgram, eval_arithmetic, eval_gates
from szpit.rng import Rng

from genckt import random_circuit
from helpers import constants, eval_many
from oracles import degree_oracle, naive_eval


def test_product_at_point():
    c = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])
    assert eval_arithmetic(c, Assignment((3, 5)), 2) == 15


def test_difference_of_squares():
    # (x1+1)(x1-1) at 7 is 49 - 1.
    c = circuit([
        Gate.var(1), Gate.const(1), Gate.add(0, 1),
        Gate.const(-1), Gate.add(0, 3), Gate.mul(2, 4),
    ])
    assert eval_arithmetic(c, Assignment((7,)), 2) == 48


def test_degree_bound_rejects_squaring_chain():
    # x^8 by three squarings has syntactic degree 8.
    c = circuit([Gate.var(1), Gate.mul(0, 0), Gate.mul(1, 1), Gate.mul(2, 2)])
    with pytest.raises(DegreeBoundError):
        eval_arithmetic(c, Assignment((2,)), 4)
    assert eval_arithmetic(c, Assignment((2,)), 8) == 256


def test_dimension_mismatch():
    c = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1)])
    with pytest.raises(DimensionMismatchError):
        eval_arithmetic(c, Assignment((1,)), 1)


def test_param_evaluation_and_plugging():
    c = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    assert eval_arithmetic(c, Assignment((3,), (4,)), 2) == 12
    plugged = plug_params(c, {1: 4})
    assert eval_arithmetic(plugged, Assignment((3,)), 2) == 12
    # A template needs its params vector; a plugged circuit takes none.
    with pytest.raises(DimensionMismatchError):
        eval_arithmetic(c, Assignment((3,)), 2)
    with pytest.raises(DimensionMismatchError):
        eval_arithmetic(plugged, Assignment((3,), (4,)), 2)


def test_matches_naive_recursive_evaluator():
    rng = Rng(41, "homomorphism")
    for i in range(400):
        r = rng.split(str(i))
        n = r.randint(1, 3)
        c = random_circuit(r, n_vars=n, extra_gates=r.randint(1, 8))
        point = tuple(r.randint(-9, 9) for _ in range(n))
        d, _ = degree_oracle(c)
        assert eval_arithmetic(c, Assignment(point), d) == naive_eval(c, point)


def test_output_bitlength_bound():
    # Provable bound: bitlen(output) <= d*(s + t) + 1 for s-bit inputs and
    # constants, total degree d, t gates.  (Doubling chains of add gates
    # gain one bit per gate, so no bound in d and s alone can work.)
    rng = Rng(43, "bitlength")
    for i in range(300):
        r = rng.split(str(i))
        n = r.randint(1, 3)
        c = random_circuit(r, n_vars=n, extra_gates=r.randint(1, 10), const_bits=16)
        point = tuple(r.randint(-(2**16) + 1, 2**16 - 1) for _ in range(n))
        value = eval_gates(c, point)
        d, _ = degree_oracle(c)
        t = len(c.gates)
        s = max(
            [abs(v).bit_length() for v in point]
            + [abs(v).bit_length() for v in constants(c)]
            + [1]
        )
        assert abs(value).bit_length() <= d * (s + t) + 1


def test_add_doubling_chain_grows_one_bit_per_gate():
    # The sharp case behind the bound above.
    gates = [Gate.var(1)]
    for i in range(20):
        gates.append(Gate.add(i, i))
    c = circuit(gates)
    assert eval_gates(c, (1,)) == 2**20


def test_bitlen_guard_trips():
    # Repeated squaring of a 2-bit value: 2^(2^k) explodes quickly.
    gates = [Gate.var(1)]
    for i in range(12):
        gates.append(Gate.mul(i, i))
    c = circuit(gates)
    with pytest.raises(BitLengthGuardError):
        eval_arithmetic(c, Assignment((2,)), 1 << 13, bitlen_guard=1 << 10)


def outcome(c, vars, params=(), bitlen_guard=1 << 20):
    """The value of one eval_gates call, or the type and text of its error."""
    try:
        return eval_gates(c, vars, params, bitlen_guard)
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e), str(e)


def test_prepared_calls_match_the_first_call_at_every_guard():
    # Guards from 1 to 64 bits put these circuits on both sides of the
    # static bound and of the runtime guard.
    rng = Rng(47, "prepared")
    values = errors = unchecked = 0
    for guard in range(1, 65):
        for i in range(12):
            r = rng.split(f"{guard}:{i}")
            n = r.randint(1, 3)
            c = random_circuit(r, n_vars=n, extra_gates=r.randint(1, 12), const_bits=12)
            point = tuple(r.randint(-(2**6), 2**6) for _ in range(n))
            first = outcome(c, point, (), guard)
            assert outcome(c, point, (), guard) == first
            prog = c._program
            assert isinstance(prog, SlotProgram)
            assert outcome(c, point, (), guard) == first
            w = max(abs(v).bit_length() for v in point)
            unchecked += prog.mul_degree * w + prog.mul_bits <= guard
            if isinstance(first, int):
                values += 1
            else:
                assert first[0] is BitLengthGuardError
                errors += 1
    assert values > 100 and errors > 100
    assert 100 < unchecked < values  # the static bound both holds and fails


def test_guard_error_is_the_same_on_every_call():
    gates = [Gate.var(1)]
    for i in range(12):
        gates.append(Gate.mul(i, i))
    c = circuit(gates)
    seen = {outcome(c, (3,), (), 1 << 10) for _ in range(4)}
    assert seen == {(BitLengthGuardError, "gate 10: value exceeds 1024-bit guard")}


def test_slot_program_layout():
    # Stage-A steps (A) read no variable; stage-B steps (B) do.  The
    # stage-A list is [p1, p2, 3, -5, g3, g8, g10, g12] and the full list
    # [x1, x2, *stage-A list, g4, g9, g11], so a B step reads stage-A
    # slot s at s + 2.  The output, g12, reads no variable.
    c = circuit([
        Gate.param(1),     # g0: stage-A slot 0
        Gate.var(1),       # g1: full slot 0
        Gate.const(3),     # g2: stage-A slot 2
        Gate.mul(0, 2),    # g3 A: stage-A slot 4
        Gate.add(1, 3),    # g4 B: full slot 10
        Gate.param(2),     # g5: stage-A slot 1
        Gate.var(2),       # g6: full slot 1
        Gate.const(-5),    # g7: stage-A slot 3
        Gate.add(5, 7),    # g8 A: stage-A slot 5
        Gate.mul(4, 6),    # g9 B: full slot 11
        Gate.add(8, 3),    # g10 A: stage-A slot 6
        Gate.mul(9, 10),   # g11 B: full slot 12
        Gate.mul(10, 10),  # g12 A: stage-A slot 7, full slot 9
    ])
    params = (2, 7)
    assert eval_gates(c, (4, -3), params) == naive_eval(c, (4, -3), params) == 64
    assert c._program is False
    assert eval_gates(c, (4, -3), params) == 64
    assert c._program == SlotProgram(
        consts=(3, -5),
        a_lhs=(0, 1, 5, 6), a_rhs=(2, 3, 4, 6), a_mul=(True, False, False, True),
        b_lhs=(0, 10, 11), b_rhs=(6, 1, 8), b_mul=(False, True, True),
        out=9,
        # Degrees and bit bounds of g3, g9, g11 and g12: (1, 2), (2, 3),
        # (3, 8) and (2, 10).
        mul_degree=3, mul_bits=10,
        memo=(params, 3, [2, 7, 3, -5, 6, 2, 8, 64]),
    )
    assert eval_gates(c, (-1, 5), params) == naive_eval(c, (-1, 5), params)


def test_prepared_circuit_takes_wrong_length_inputs_like_a_fresh_one():
    def template():
        return circuit([Gate.var(1), Gate.var(2), Gate.param(1), Gate.mul(0, 2), Gate.add(3, 1)])

    prepared = template()
    for _ in range(2):
        assert eval_gates(prepared, (2, 3), (5,)) == 13
    assert isinstance(prepared._program, SlotProgram)
    for vars, params in [((2,), (5,)), ((2, 3, 4), (5,)), ((2, 3), ()), ((2, 3), (5, 6)), ((), ())]:
        assert outcome(prepared, vars, params) == outcome(template(), vars, params)


def test_eval_many_checks_degree_once():
    c = circuit([Gate.var(1), Gate.mul(0, 0)])
    points = [(0,), (1,), (2,), (3,)]
    assert list(eval_many(c, points, degree_bound=2)) == [0, 1, 4, 9]
    with pytest.raises(DegreeBoundError):
        list(eval_many(c, points, degree_bound=1))
