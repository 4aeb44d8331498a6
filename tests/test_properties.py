"""Property tests: degree analysis, the text format and evaluation on
circuits with var, param and const gates, checked against the recursive
oracles; univariate extraction against evaluation; the root codec's round
trip and surjectivity; the agreement of the three PIT testers; amplify
against its round-by-round definition; and the seeds of split streams."""

import pytest

pytest.importorskip("hypothesis")

import random
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from szpit.avoid import amplify
from szpit.boolfunc import BoolFunc, int_to_bits
from szpit.circuit import (
    Gate,
    analyze_degrees,
    circuit,
    parse_circuit,
    plug_params,
    serialize_circuit,
)
from szpit.codec import SZContext, all_codes, cube_roots, decode_code, encode_root
from szpit.errors import DegreeBoundError
from szpit.evaluator import SlotProgram, eval_gates
from szpit.hitting import HittingSet
from szpit.pit import (
    NONZERO,
    ZERO_ON_CUBE,
    difference_circuit,
    pit_cube_brute,
    pit_random,
    pit_with_hitting_set,
)
from szpit.rng import Rng, derive_seed
from szpit.unipoly import eval_unipoly, extract_unipoly

from genckt import random_circuit_bounded
from helpers import times_line_factors
from oracles import amplify_steps, degree_oracle, expansion_is_zero, naive_eval

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
@given(circuits())
def test_text_format_roundtrips(c):
    assert parse_circuit(serialize_circuit(c)) == c


@PROPERTY
@given(circuits_with_inputs())
def test_params_per_evaluation_equal_plugged_params(case):
    c, x, p = case
    plugged = plug_params(c, dict(enumerate(p, 1)))
    assert plugged.n_params == 0
    assert eval_gates(c, x, p) == naive_eval(c, x, p) == eval_gates(plugged, x)


@PROPERTY
@given(circuits_with_inputs(), st.data())
def test_repeated_evaluation_matches_the_oracle(case, data):
    # The first call interprets; the second prepares the slot program,
    # which the later calls run.
    c, x, p = case
    for _ in range(3):
        assert eval_gates(c, x, p) == naive_eval(c, x, p)
        x = tuple(data.draw(SMALL) for _ in x)
        p = tuple(data.draw(SMALL) for _ in p)
    assert isinstance(c._program, SlotProgram)


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
    ``(x, how, p, slot, guard)``, where ``how`` reuses the last params
    object ("same"), passes the new tuple p ("new"), an equal copy of the
    last vector ("copy"), or the one params list after adding 1 to its
    entry ``slot`` in place ("in place")."""
    kind, c = draw(templates())
    hows = st.sampled_from(["same", "new", "copy", "in place"])
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        x = tuple(draw(VALUES) for _ in range(c.n_vars))
        p = tuple(draw(VALUES) for _ in range(c.n_params))
        slot = draw(st.integers(0, max(0, c.n_params - 1)))
        calls.append((x, draw(hows), p, slot, draw(GUARDS)))
    return kind, c, calls


@PROPERTY
@given(call_sequences())
def test_staged_evaluation_over_a_call_sequence(case):
    # Stage A runs once per parameter vector and is kept for the next call;
    # every call must still give the interpreter's value or error, which a
    # fresh copy of the circuit yields on its first call.  In an affine
    # template every gate that reads no variable has a form, so stage B
    # runs just the gates that read one; a product of two params, or a
    # chain past the form cap, runs in stage B as well.
    kind, c, calls = case
    params = tuple(calls[0][2])
    as_list = list(params)
    for x, how, p, slot, guard in calls:
        if how == "new":
            params = p
        elif how == "copy":
            params = tuple(list(params))
        elif how == "in place":
            if as_list:
                as_list[slot] += 1
            params = as_list
        want = outcome(eval_gates, circuit(c.gates), x, params, guard)
        assert outcome(eval_gates, c, x, params, guard) == want
        if isinstance(want, int):
            assert want == naive_eval(c, x, tuple(params))
    if kind != "random":
        reads_var = []
        for g in c.gates:
            binary = g.op in ("add", "mul")
            reads_var.append(g.op == "var" or binary and (reads_var[g.lhs] or reads_var[g.rhs]))
        var_steps = sum(r and g.op != "var" for g, r in zip(c.gates, reads_var))
        assert (len(c._program.b_mul) == var_steps) == (kind == "affine")


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
    g = BoolFunc(m, m + 1, tuple(
        int_to_bits(data.draw(st.integers(0, (1 << (m + 1)) - 1)), m + 1) for _ in range(1 << m)
    ))
    h = amplify(g, t)
    for v in data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4)):
        x = int_to_bits(v, m)
        assert h(x) == amplify_steps(g, x, t)[-1]
