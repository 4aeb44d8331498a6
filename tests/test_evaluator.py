"""Degree-bounded evaluation."""

import time

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
    # Stage A holds the gates with an affine form in the params: p1, p2, 3,
    # -5, g3 = 3 p1, g8 = p2 - 5 and g10 = p2 - 5 + 3 p1.  g12 = g10 * g10
    # multiplies two param forms, so it is a stage-B step like every gate
    # that reads a variable (B).  The live-outs are g3 and g10, which B
    # steps read; stage B's list is [x1, x2, g3, g10, g4, g9, g11, g12].
    c = circuit([
        Gate.param(1),     # g0
        Gate.var(1),       # g1: B slot 0
        Gate.const(3),     # g2
        Gate.mul(0, 2),    # g3: B slot 2
        Gate.add(1, 3),    # g4 B: B slot 4
        Gate.param(2),     # g5
        Gate.var(2),       # g6: B slot 1
        Gate.const(-5),    # g7
        Gate.add(5, 7),    # g8
        Gate.mul(4, 6),    # g9 B: B slot 5
        Gate.add(8, 3),    # g10: B slot 3
        Gate.mul(9, 10),   # g11 B: B slot 6
        Gate.mul(10, 10),  # g12 B: B slot 7
    ])
    params = (2, 7)
    assert eval_gates(c, (4, -3), params) == naive_eval(c, (4, -3), params) == 64
    assert c._program is False
    assert eval_gates(c, (4, -3), params) == 64
    prog = c._program
    assert [(k, coeffs, get((10, 20))) for k, coeffs, get in prog.forms] == [
        (0, (3,), (10,)), (-5, (1, 3), (20, 10)),
    ]
    assert (prog.b_lhs, prog.b_rhs, prog.b_mul, prog.out) == (
        (0, 4, 5, 3), (2, 1, 3, 3), (False, True, True, True), 7,
    )
    # Degrees and bit bounds of g3, g9, g11 and g12: (1, 2), (2, 3),
    # (3, 8) and (2, 10).
    assert (prog.mul_degree, prog.mul_bits) == (3, 10)
    assert prog.memo == (params, 3, [6, 8])
    assert eval_gates(c, (-1, 5), params) == naive_eval(c, (-1, 5), params)


def test_affine_stage_a_forms():
    # The same circuit with g12 = g10 * 3: every gate that reads no
    # variable is then in stage A, and the output g12 is a live-out.
    # g3 = 3 p1, g10 = p2 - 5 + 3 p1 and g12 = 3 p2 - 15 + 9 p1.
    c = circuit([
        Gate.param(1), Gate.var(1), Gate.const(3), Gate.mul(0, 2), Gate.add(1, 3),
        Gate.param(2), Gate.var(2), Gate.const(-5), Gate.add(5, 7), Gate.mul(4, 6),
        Gate.add(8, 3), Gate.mul(9, 10), Gate.mul(10, 2),
    ])
    for params in [(2, 7), (2, 7), (-4, 11)]:
        assert eval_gates(c, (4, -3), params) == naive_eval(c, (4, -3), params)
    prog = c._program
    assert [(k, coeffs, get((10, 20))) for k, coeffs, get in prog.forms] == [
        (0, (3,), (10,)), (-5, (1, 3), (20, 10)), (-15, (3, 9), (20, 10)),
    ]
    assert (prog.b_lhs, prog.b_rhs, prog.out) == ((0, 5, 6), (2, 1, 3), 4)
    assert prog.memo == ((-4, 11), 4, [-12, -6, -18])
    # A param-free circuit's live-outs are constant forms.
    plugged = plug_params(c, {1: -4, 2: 11})
    for _ in range(2):
        assert eval_gates(plugged, (4, -3)) == eval_gates(c, (4, -3), (-4, 11))
    assert plugged._program.forms == ((-12, (), None), (-6, (), None), (-18, (), None))


def test_prepare_folds_no_constant_past_the_default_guard():
    # x1 + p1 next to 24 squarings of 3: the k-th square has 2^(k+1) bits
    # by the static bound, so squares 20 to 24 run as stage-B steps
    # instead of being folded at prepare time (3^(2^24) has 26 M bits).
    # Every call interprets under the 2^16-bit guard and raises there.
    gates = [Gate.var(1), Gate.param(1), Gate.const(3)]
    gates += [Gate.mul(k, k) for k in range(2, 26)]
    gates += [Gate.add(0, 1), Gate.mul(27, 26)]
    c = circuit(gates)
    want = outcome(circuit(gates), (1,), (2,), 1 << 16)
    assert want == (BitLengthGuardError, "gate 18: value exceeds 65536-bit guard")
    start = time.perf_counter()
    for _ in range(3):
        assert outcome(c, (1,), (2,), 1 << 16) == want
    assert time.perf_counter() - start < 1.0
    assert len(c._program.b_mul) == 5 + 2  # and the two gates that read x1


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
