"""Degree-bounded evaluation."""

import time

import pytest

from szpit.circuit import Gate, circuit, plug_params
from szpit.errors import (
    BitLengthGuardError,
    DegreeBoundError,
    DimensionMismatchError,
    PreconditionError,
)
from szpit.evaluator import SlotProgram, eval_arithmetic, eval_gates
from szpit.rng import Rng

from genckt import random_circuit
from helpers import constants, eval_many
from oracles import degree_oracle, naive_eval


def test_product_at_point():
    c = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])
    assert eval_arithmetic(c, (3, 5), 2) == 15


def test_difference_of_squares():
    # (x1+1)(x1-1) at 7 is 49 - 1.
    c = circuit([
        Gate.var(1), Gate.const(1), Gate.add(0, 1),
        Gate.const(-1), Gate.add(0, 3), Gate.mul(2, 4),
    ])
    assert eval_arithmetic(c, (7,), 2) == 48


def test_degree_bound_rejects_squaring_chain():
    # x^8 by three squarings has syntactic degree 8.
    c = circuit([Gate.var(1), Gate.mul(0, 0), Gate.mul(1, 1), Gate.mul(2, 2)])
    with pytest.raises(DegreeBoundError):
        eval_arithmetic(c, (2,), 4)
    assert eval_arithmetic(c, (2,), 8) == 256


def test_dimension_mismatch():
    c = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1)])
    with pytest.raises(DimensionMismatchError):
        eval_arithmetic(c, (1,), 1)
    # The degree bound is checked first.
    with pytest.raises(DegreeBoundError):
        eval_arithmetic(c, (1,), 0)


@pytest.mark.parametrize("vars, params, message", [
    ((3,), 1, "1 variable values for dimension 2"),
    ((3, 4, 6), 1, "3 variable values for dimension 2"),
    ((), 0, "0 variable values for dimension 2"),
    ((3, 4), 1 << 70, f"packed params {1 << 70} outside"),
    ((3, 4), -1, "packed params -1 outside"),
    ((3, 4), 2, "packed params 2 outside"),
])
def test_eval_gates_refuses_wrong_dimensions_on_every_path(vars, params, message):
    c = circuit([Gate.var(1), Gate.var(2), Gate.param(1), Gate.mul(0, 1), Gate.mul(3, 2)])
    # Before any call, after the interpreted first call, and once the
    # second call has prepared the slot program.
    for _ in range(3):
        with pytest.raises(DimensionMismatchError, match=message):
            eval_gates(c, vars, params)
        assert eval_gates(c, (3, 4), 1) == 12
    assert isinstance(c._program, SlotProgram)


def test_param_evaluation_and_plugging():
    c = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    # Per evaluation a param is a bit of R; the default R = 0 is the
    # all-zero member.
    assert eval_gates(c, (3,), 1) == 3
    assert eval_gates(c, (3,)) == 0
    plugged = plug_params(c, {1: 4})
    assert eval_arithmetic(plugged, (3,), 2) == 12
    # The checked path refuses a template; a plugged circuit takes R = 0 only.
    with pytest.raises(PreconditionError, match="plug_params supplies values"):
        eval_arithmetic(c, (3,), 2)
    with pytest.raises(DimensionMismatchError):
        eval_gates(plugged, (3,), 1)


def test_matches_naive_recursive_evaluator():
    rng = Rng(41, "homomorphism")
    for i in range(400):
        r = rng.split(str(i))
        n = r.randint(1, 3)
        c = random_circuit(r, n_vars=n, extra_gates=r.randint(1, 8))
        point = tuple(r.randint(-9, 9) for _ in range(n))
        d, _ = degree_oracle(c)
        assert eval_arithmetic(c, point, d) == naive_eval(c, point)


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
        eval_arithmetic(c, (2,), 1 << 13, bitlen_guard=1 << 10)


def outcome(c, vars, params=0, bitlen_guard=1 << 20):
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
            first = outcome(c, point, 0, guard)
            assert outcome(c, point, 0, guard) == first
            prog = c._program
            assert isinstance(prog, SlotProgram)
            assert outcome(c, point, 0, guard) == first
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
    seen = {outcome(c, (3,), 0, 1 << 10) for _ in range(4)}
    assert seen == {(BitLengthGuardError, "gate 10: value exceeds 1024-bit guard")}


def test_packed_params_are_one_bit_wide():
    # (p1 + p1)^2 + x1 at x1 = 0: the static bound is 2w + 2 bits.  R = 1
    # is 1 bit wide, so under a 2-bit guard every call interprets and
    # raises at the square, 4; R = 0 is 0 bits wide and runs the program.
    c = circuit([Gate.var(1), Gate.param(1), Gate.add(1, 1), Gate.mul(2, 2), Gate.add(0, 3)])
    for _ in range(3):
        assert outcome(c, (0,), 1, 2) == (BitLengthGuardError, "gate 3: value exceeds 2-bit guard")
        assert outcome(c, (0,), 0, 2) == 0
    assert c._program.memo[:2] == (0, 0)


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
    assert c._program is None
    # R = 0b11 sets p1 = p2 = 1: g3 = 3 and g10 = -1.
    assert eval_gates(c, (4, -3), 0b11) == naive_eval(c, (4, -3), (1, 1)) == 1
    assert c._program is False
    assert eval_gates(c, (4, -3), 0b11) == 1
    prog = c._program
    # Live-outs as runs: g3 = 3 p1 is one run; g10 = p2 - 5 + 3 p1 puts 1,
    # not 2 * 3, on p2, so p2 is a second run, in ``extra``.
    assert prog.fields == ((0, 3, 0, 1), (-5, 3, 0, 1))
    assert prog.extra == ((1, 1, 1, 1),)
    assert (prog.b_lhs, prog.b_rhs, prog.b_mul, prog.out) == (
        (0, 4, 5, 3), (2, 1, 3, 3), (False, True, True, True), 7,
    )
    # Degrees and bit bounds of g3, g9, g11 and g12: (1, 2), (2, 3),
    # (3, 8) and (2, 10).
    assert (prog.mul_degree, prog.mul_bits) == (3, 10)
    assert prog.memo == (0b11, 1, [3, -1])
    # Stage A reads each run from R by shift and mask.
    for packed, bits in [(0b10, (0, 1)), (0b01, (1, 0)), (0, (0, 0))]:
        assert eval_gates(c, (4, -3), packed) == naive_eval(c, (4, -3), bits)
        assert prog.memo[0] == packed and prog.memo[1] == min(packed, 1)
        # A params tuple is refused and leaves the memo alone.
        memo = prog.memo
        with pytest.raises(TypeError):
            eval_gates(c, (-1, 5), (2, 7))
        assert prog.memo is memo


def test_affine_stage_a_forms():
    # The same circuit with g12 = g10 * 3: every gate that reads no
    # variable is then in stage A, and the output g12 is a live-out.
    # g3 = 3 p1, g10 = p2 - 5 + 3 p1 and g12 = 3 p2 - 15 + 9 p1.
    c = circuit([
        Gate.param(1), Gate.var(1), Gate.const(3), Gate.mul(0, 2), Gate.add(1, 3),
        Gate.param(2), Gate.var(2), Gate.const(-5), Gate.add(5, 7), Gate.mul(4, 6),
        Gate.add(8, 3), Gate.mul(9, 10), Gate.mul(10, 2),
    ])
    for params, bits in [(0b01, (1, 0)), (0b01, (1, 0)), (0b10, (0, 1))]:
        assert eval_gates(c, (4, -3), params) == naive_eval(c, (4, -3), bits)
    prog = c._program
    assert prog.fields == ((0, 3, 0, 1), (-5, 3, 0, 1), (-15, 9, 0, 1))
    assert prog.extra == ((1, 1, 1, 1), (2, 3, 1, 1))
    assert (prog.b_lhs, prog.b_rhs, prog.out) == ((0, 5, 6), (2, 1, 3), 4)
    assert prog.memo == (0b10, 1, [0, -4, -12])
    # A param-free circuit's live-outs are constant forms, which its only
    # R, the default 0, reads.
    plugged = plug_params(c, {1: -4, 2: 11})
    for _ in range(3):
        assert eval_gates(plugged, (4, -3)) == naive_eval(c, (4, -3), (-4, 11))
        assert plugged._program is False or plugged._program.memo[0] == 0
    assert plugged._program.fields == ((-12, 0, 0, 0), (-6, 0, 0, 0), (-18, 0, 0, 0))
    assert plugged._program.extra == ()


def test_prepare_folds_no_constant_past_the_default_guard():
    # x1 + p1 next to 24 squarings of 3: the k-th square has 2^(k+1) bits
    # by the static bound, so squares 16 to 24 run as stage-B steps under
    # the preparing call's 2^16-bit guard instead of being folded at
    # prepare time (3^(2^24) has 26 M bits, past the default guard too).
    # Every call interprets under that guard and raises there.
    gates = [Gate.var(1), Gate.param(1), Gate.const(3)]
    gates += [Gate.mul(k, k) for k in range(2, 26)]
    gates += [Gate.add(0, 1), Gate.mul(27, 26)]
    c = circuit(gates)
    want = outcome(circuit(gates), (1,), 1, 1 << 16)
    assert want == (BitLengthGuardError, "gate 18: value exceeds 65536-bit guard")
    start = time.perf_counter()
    for _ in range(3):
        assert outcome(c, (1,), 1, 1 << 16) == want
    assert time.perf_counter() - start < 1.0
    assert len(c._program.b_mul) == 9 + 2  # and the two gates that read x1


def test_prepare_folds_no_constant_past_the_preparing_guard():
    # The same squarings after x1 + p1: under a 2^16-bit guard the second
    # call prepares, and it folds 3^(2^15) (51,937 bits) but not
    # 3^(2^16), whose static bound of 2^17 bits is past that guard.  The
    # value would be the same, as stage B computes it; only its cost
    # differs.  Every call interprets and raises at the same gate.
    gates = [Gate.var(1), Gate.param(1), Gate.add(0, 1), Gate.const(3)]
    gates += [Gate.mul(k, k) for k in range(3, 27)]
    gates.append(Gate.mul(2, 27))
    c = circuit(gates)
    want = (BitLengthGuardError, "gate 19: value exceeds 65536-bit guard")
    assert outcome(c, (1,), 1, 1 << 16) == want
    assert outcome(c, (1,), 1, 1 << 16) == want
    folded = [const for const, *_ in c._program.fields]
    assert max(v.bit_length() for v in folded) == 51_937
    assert outcome(c, (1,), 1, 1 << 16) == want


def test_prepared_circuit_takes_wrong_length_inputs_like_a_fresh_one():
    def template():
        return circuit([Gate.var(1), Gate.var(2), Gate.param(1), Gate.mul(0, 2), Gate.add(3, 1)])

    prepared = template()
    for _ in range(2):
        assert eval_gates(prepared, (2, 3), 1) == 5
    assert isinstance(prepared._program, SlotProgram)
    for vars, params in [
        ((2,), 1), ((2, 3, 4), 1), ((2, 3), 0), ((2, 3), -1), ((), 0), ((2, 3), 2),
    ]:
        assert outcome(prepared, vars, params) == outcome(template(), vars, params)


def test_eval_many_checks_degree_once():
    c = circuit([Gate.var(1), Gate.mul(0, 0)])
    points = [(0,), (1,), (2,), (3,)]
    assert list(eval_many(c, points, degree_bound=2)) == [0, 1, 4, 9]
    with pytest.raises(DegreeBoundError):
        list(eval_many(c, points, degree_bound=1))
