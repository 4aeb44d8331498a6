"""Root encoding/decoding: round-trip, surjectivity, counting."""

import copy
import importlib
import pickle
from dataclasses import FrozenInstanceError

import pytest

from szpit.circuit import Gate, analyze_degrees, circuit, plug_params
from szpit.codec import (
    RootCode,
    SZContext,
    all_codes,
    code_space_size,
    count_roots_brute,
    cube_roots,
    decode_code,
    encode_root,
    pack_code,
    parse_code,
    serialize_code,
    unpack_code,
)
from szpit.config import DEFAULT_Q_CAP
from szpit.errors import (
    BitLengthGuardError,
    CapExceededError,
    DimensionMismatchError,
    PreconditionError,
)
from szpit.evaluator import eval_gates
from szpit.unipoly import extract_unipoly
from szpit.hitting import find_small_witness
from szpit.rng import Rng

from genckt import random_circuit_bounded
from helpers import (
    SCRIPTS, SPACES, assert_exact_frozen, in_script, shifted_power_plus_x2, times_line_factors,
)
from oracles import brute_roots

codec_mod = importlib.import_module("szpit.codec")


def product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def ctx_product(q=2, a=(1, 1)):
    return SZContext(product_circuit(), 2, 1, q, a)


def test_encode_first_coordinate():
    ctx = ctx_product()
    assert encode_root(ctx, (0, 1)) == RootCode(1, 1, (1,))


def test_encode_second_coordinate():
    ctx = ctx_product()
    assert encode_root(ctx, (1, 0)) == RootCode(2, 1, (1,))


def test_encode_default_when_reference_is_root():
    ctx = SZContext(product_circuit(), 2, 1, 2, (0, 0))
    assert not ctx.nonroot_ok
    assert encode_root(ctx, (0, 1)) == RootCode(1, 1, (0,))


def test_encode_default_when_point_not_root():
    ctx = ctx_product()
    assert encode_root(ctx, (1, 1)) == RootCode(1, 1, (0,))


def test_decode_examples():
    ctx = ctx_product()
    assert decode_code(ctx, RootCode(1, 1, (1,))) == (0, 1)
    assert decode_code(ctx, RootCode(2, 1, (1,))) == (1, 0)
    # rest = (0): the restriction is x * 1, its first root is 0, giving
    # (0, 0) -- itself a genuine root.
    assert decode_code(ctx, RootCode(1, 1, (0,))) == (0, 0)


def test_decode_is_total_on_valid_codes():
    ctx = ctx_product(q=3, a=(2, 2))
    for code in all_codes(2, 1, 3):
        point = decode_code(ctx, code)
        assert all(0 <= v < 3 for v in point)


def test_decode_default_when_too_few_roots():
    # x1*x2 + 1 has no roots on S_2 at all, so any code decodes to 0-bar.
    c = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1), Gate.const(1), Gate.add(2, 3)])
    ctx = SZContext(c, 2, 1, 2, (1, 1))
    assert decode_code(ctx, RootCode(1, 1, (1,))) == (0, 0)


def test_nonroot_entries_may_be_large():
    ctx = ctx_product(q=2, a=(10**40, -(10**41)))
    for b in cube_roots(product_circuit(), 2, 2):
        assert decode_code(ctx, encode_root(ctx, b)) == b


def test_roundtrip_and_surjectivity_exhaustive():
    # Random circuits seldom have two roots on one line, so each is
    # multiplied by line factors (x_j - r); some roots then have rank 2
    # or more, and decoding must pick the right root on its line.
    rng = Rng(83, "codec")
    checked = max_rank = 0
    for attempt in range(600):
        if checked >= 60:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=6)
        if c is None:
            continue
        q = r.randint(2, 8 if n < 3 else 6)
        line_roots = sorted({r.randrange(q) for _ in range(r.randint(1, 3))})
        c = times_line_factors(c, r.randint(1, n), line_roots)
        d = max(1, analyze_degrees(c).max_individual)
        try:
            a = find_small_witness(c, max(q, 2 * d * n), rng=r.split("w"))
        except Exception:
            continue
        checked += 1
        ctx = SZContext(c, n, d, q, a)
        roots = set(cube_roots(c, n, q))
        assert roots == set(brute_roots(c, n, q))
        for b in roots:
            code = encode_root(ctx, b)
            max_rank = max(max_rank, code.i)
            assert decode_code(ctx, code) == b
        image = {decode_code(ctx, code) for code in all_codes(n, d, q)}
        assert roots <= image
    assert checked == 60
    assert max_rank >= 2


def test_restriction_cache_keeps_a_bounded_number_of_entries(monkeypatch):
    # x1 * x2 * (x1 - 1) * (x1 - 3) on S_5^2 has 17 roots spread over the
    # 10 restrictions a context can need; with room for 4 the cache
    # evicts, and every root must still round-trip.
    monkeypatch.setattr(codec_mod, "_ROOTS_CACHE_ENTRIES", 4)
    c = times_line_factors(product_circuit(), 1, [1, 3])
    ctx = SZContext(c, 2, 3, 5, (2, 1))
    roots = cube_roots(c, 2, 5)
    assert len(roots) == 17
    seen = set()

    def cached(result):
        assert len(ctx._roots_cache) <= 4
        seen.update(ctx._roots_cache)
        return result

    for b in roots:
        assert cached(decode_code(ctx, cached(encode_root(ctx, b)))) == b
    image = {cached(decode_code(ctx, code)) for code in all_codes(2, 3, 5)}
    assert set(roots) <= image
    assert len(seen) > 4


@pytest.mark.parametrize("k", [0, 3, 7])
def test_restrict_refuses_k_outside_the_variables(k):
    c = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])  # x1*x2
    with pytest.raises(PreconditionError, match=rf"^k={k} outside \[1\.\.2\]$"):
        codec_mod.restrict(c, k, (5,))


def test_context_applies_its_guard_on_misses():
    # Decoding (1, 1, (0,)) restricts (x1 - 1)^20 + x2 to x2 = 1, whose
    # middle coefficients pass 16 bits from (x1 - 1)^19 on: extraction
    # under the context's guard stops at that gate.
    c = shifted_power_plus_x2(20)
    with pytest.raises(BitLengthGuardError, match="^gate 21: value exceeds 16-bit guard$"):
        extract_unipoly(codec_mod.restrict(c, 1, (1,)), 20, bitlen_guard=16)
    ctx = SZContext(c, 2, 20, 80, (1, 1), bitlen_guard=16)
    with pytest.raises(BitLengthGuardError, match="^gate 21: value exceeds 16-bit guard$"):
        decode_code(ctx, RootCode(1, 1, (0,)))
    assert decode_code(SZContext(c, 2, 20, 80, (1, 1)), RootCode(1, 1, (0,))) == (0, 0)
    # x1^20 + x2 restricted to x2 = 1 has coefficients of one bit, but the
    # root scan's values at u < 80 pass 64 bits.
    c = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 0)]
                + [Gate.mul(i, 0) for i in range(2, 20)] + [Gate.add(20, 1)])
    ctx = SZContext(c, 2, 20, 80, (1, 1), bitlen_guard=64)
    with pytest.raises(BitLengthGuardError, match="^value exceeds 64-bit guard$"):
        decode_code(ctx, RootCode(1, 1, (0,)))
    assert decode_code(SZContext(c, 2, 20, 80, (1, 1)), RootCode(1, 1, (0,))) == (0, 0)


def test_context_compiles_its_circuit():
    c = shifted_power_plus_x2(3)
    ctx = SZContext(c, 2, 3, 8, (1, 1))
    assert c._program.run is not None
    for u in range(8):
        for v in range(8):
            assert eval_gates(c, (u, v), 0, ctx.bitlen_guard) == (u - 1) ** 3 + v


def test_counting_corollary():
    rng = Rng(89, "count")
    checked = 0
    for attempt in range(1500):
        if checked >= 150:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=5)
        if c is None:
            continue
        d = max(1, analyze_degrees(c).max_individual)
        q = r.randint(2, 8)
        try:
            find_small_witness(c, max(q, 2 * d * n), rng=r.split("w"))
        except Exception:
            continue  # vanishing circuit: the bound's premise fails
        checked += 1
        assert count_roots_brute(c, n, q) <= d * n * q ** (n - 1)
    assert checked == 150


def test_count_examples():
    assert count_roots_brute(product_circuit(), 2, 2) == 3
    zero2 = circuit([Gate.var(1), Gate.var(2), Gate.const(0), Gate.mul(0, 1), Gate.mul(2, 3)])
    assert count_roots_brute(zero2, 2, 3) == 9
    diff = circuit([Gate.var(1), Gate.var(2), Gate.const(-1), Gate.mul(1, 2), Gate.add(0, 3)])
    assert count_roots_brute(diff, 2, 3) == 3


def test_count_cap():
    # 3000^2 = 9,000,000 points exceed the exhaustion cap of 2^22.
    with pytest.raises(CapExceededError):
        count_roots_brute(product_circuit(), 2, 3000)


def test_pack_extremes():
    assert pack_code(RootCode(1, 1, (0, 0)), 3, 2, 4) == 1
    n, d, q = 3, 2, 4
    top = RootCode(n, d, (q - 1, q - 1))
    assert pack_code(top, n, d, q) == code_space_size(n, d, q)


def test_pack_unpack_roundtrip_exhaustive():
    n, d, q = 2, 2, 3
    assert code_space_size(n, d, q) == 12
    for idx in range(1, 13):
        code = unpack_code(idx, n, d, q)
        assert pack_code(code, n, d, q) == idx
    with pytest.raises(PreconditionError):
        unpack_code(13, n, d, q)


def test_slot_filled_codes_are_codes():
    for k, i, rest in [(1, 1, ()), (2, 3, (0, 5)), (3, 1, (7, 0))]:
        code = codec_mod._code(k, i, rest)
        assert type(code) is RootCode
        assert code == RootCode(k, i, rest) and hash(code) == hash(RootCode(k, i, rest))
        assert (code.k, code.i, code.rest) == (k, i, rest)
        with pytest.raises(FrozenInstanceError):
            code.k = 2
    assert not hasattr(RootCode(1, 1, ()), "__dict__")


CODE_BUILDS = {
    "_code": (lambda: codec_mod._code(2, 3, (0, 5)), RootCode(2, 3, (0, 5))),
    "unpack_code": (lambda: unpack_code(40, 3, 2, 4), RootCode(2, 1, (3, 1))),
    "encode_root": (
        lambda: encode_root(SZContext(product_circuit(), 2, 1, 3, (1, 1)), (0, 2)),
        RootCode(1, 1, (2,)),
    ),
}


@pytest.mark.parametrize("build, want", CODE_BUILDS.values(), ids=CODE_BUILDS)
def test_each_code_builder_makes_an_exact_frozen_code(build, want):
    assert_exact_frozen(build(), want)


def test_code_builder_has_the_root_code_slots():
    # As for gates: the class swap needs identical slot layouts.
    assert codec_mod._CodeBuilder.__slots__ == RootCode.__slots__


def test_codes_survive_pickle_and_deepcopy():
    built = [RootCode(2, 1, (1, 0)), codec_mod._code(1, 3, ()), unpack_code(40, 3, 2, 4)]
    for code in built:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(code, protocol))
            assert type(back) is RootCode and back == code and hash(back) == hash(code)
        assert copy.deepcopy(code) == code and copy.copy(code) == code


def test_in_cube_on_edges_empty_points_and_iterators():
    ctx = SZContext(product_circuit(), 2, 1, 5, (1, 1))
    assert ctx.in_cube(()) and ctx.in_cube([]) and ctx.in_cube(iter(()))
    for u in (-1, 0, 4, 5):
        for v in (-1, 0, 4, 5):
            want = 0 <= u < 5 and 0 <= v < 5
            assert ctx.in_cube((u, v)) is want
            assert ctx.in_cube(w for w in (u, v)) is want
            assert ctx.in_cube([u, v]) is want


def test_encode_evaluates_hybrids_before_n_only(monkeypatch):
    # P = x1 * x2 * x3 with reference (1, 1, 1): a root whose first zero
    # is at coordinate j stops the hybrid walk at k = j.  Encoding checks
    # P(b) once and then walks hybrids 1..k, except hybrid n, which is b.
    c = circuit([Gate.var(1), Gate.var(2), Gate.var(3), Gate.mul(0, 1), Gate.mul(3, 2)])
    ctx = SZContext(c, 3, 1, 3, (1, 1, 1))
    points = []
    counted = codec_mod.eval_gates

    def counting(ckt, point, *args):
        points.append(point)
        return counted(ckt, point, *args)

    monkeypatch.setattr(codec_mod, "eval_gates", counting)
    for b, k, evaluations in [((0, 2, 1), 1, 2), ((2, 0, 0), 2, 3), ((1, 2, 0), 3, 3)]:
        points.clear()
        code = encode_root(ctx, b)
        assert code.k == k and len(points) == evaluations
        assert points == [b] + [b[:j] + (1, 1, 1)[j:] for j in range(1, evaluations)]
        assert code == _oracle_encode(c, 3, 1, 3, (1, 1, 1), b)
        assert decode_code(ctx, code) == b


def test_code_text_roundtrip():
    code = RootCode(2, 1, (1, 0))
    assert parse_code(serialize_code(code)) == code
    assert serialize_code(code) == "2:1:1,0"
    # n = 1: empty rest
    assert parse_code("1:3:") == RootCode(1, 3, ())


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
def test_code_reader_reads_ascii_integers_only(script):
    # Signs and spaces read as int() reads them; another script's digits,
    # or a "_" separator, are refused as any other bad number is.
    assert parse_code(" +2: 1 :1, 0 ") == RootCode(2, 1, (1, 0))
    for text in (in_script("2:1:1,0", script), "2:1:1,1_0", "1_2:1:0"):
        with pytest.raises(PreconditionError) as exc:
            parse_code(text)
        assert str(exc.value) == f"bad code {text!r}, want k:i:c1,c2,..."


def test_context_rejects_degree_mismatch():
    with pytest.raises(PreconditionError):
        SZContext(circuit([Gate.var(1), Gate.mul(0, 0)]), 1, 1, 4, (3,))


def test_univariate_context():
    # n = 1: codes are (1, i, ()) and decode recovers the i-th root.
    c = circuit([
        Gate.var(1), Gate.const(-1), Gate.add(0, 1),  # x - 1
        Gate.const(-3), Gate.add(0, 3),               # x - 3
        Gate.mul(2, 4),
    ])
    ctx = SZContext(c, 1, 2, 5, (0,))
    assert encode_root(ctx, (1,)) == RootCode(1, 1, ())
    assert encode_root(ctx, (3,)) == RootCode(1, 2, ())
    assert decode_code(ctx, RootCode(1, 2, ())) == (3,)


def _oracle_encode(c, n, d, q, a, b):
    """Independent re-implementation: direct evaluations, no extraction."""
    default = RootCode(1, 1, (0,) * (n - 1))
    if eval_gates(c, a) == 0 or eval_gates(c, b) != 0:
        return default
    k = next(j for j in range(1, n + 1) if eval_gates(c, b[:j] + a[j:]) == 0)
    prefix, suffix = b[: k - 1], a[k:]
    roots = [u for u in range(q) if eval_gates(c, prefix + (u,) + suffix) == 0]
    rank = roots.index(b[k - 1]) + 1
    if rank > d:
        return default
    return RootCode(k, rank, b[: k - 1] + b[k:])


def _oracle_decode(c, n, d, q, a, code):
    if eval_gates(c, a) == 0:
        return (0,) * n
    k, i, rest = code.k, code.i, code.rest
    prefix, suffix = rest[: k - 1], a[k:]
    roots = [u for u in range(q) if eval_gates(c, prefix + (u,) + suffix) == 0]
    if len(roots) < i:
        return (0,) * n
    return rest[: k - 1] + (roots[i - 1],) + rest[k - 1 :]


def test_codec_matches_direct_evaluation_oracle():
    # The library path goes restriction -> coefficient extraction -> root
    # scan of the polynomial; the oracle scans the circuit directly.  They
    # must agree on arbitrary inputs, defaults included.
    rng = Rng(97, "codec-oracle")
    checked = 0
    for attempt in range(400):
        if checked >= 80:
            break
        r = rng.split(str(attempt))
        n = r.randint(1, 3)
        c = random_circuit_bounded(r, n_vars=n, max_individual=3, extra_gates=6)
        if c is None:
            continue
        checked += 1
        d = max(1, analyze_degrees(c).max_individual)
        q = r.randint(2, 6)
        a = tuple(r.randint(-5, 5) for _ in range(n))
        ctx = SZContext(c, n, d, q, a)
        for _ in range(8):
            b = tuple(r.randrange(q) for _ in range(n))
            assert encode_root(ctx, b) == _oracle_encode(c, n, d, q, a, b)
        for _ in range(8):
            code = unpack_code(r.randint(1, code_space_size(n, d, q)), n, d, q)
            assert decode_code(ctx, code) == _oracle_decode(c, n, d, q, a, code)
    assert checked == 80


def test_restriction_with_duplicate_var_gates():
    # Two gates for the same variable: both must be replaced when fixed.
    c = circuit([
        Gate.var(1), Gate.var(2), Gate.var(1),
        Gate.mul(0, 1), Gate.add(3, 2),        # x1*x2 + x1
    ])
    ctx = SZContext(c, 2, 1, 4, (1, 1))
    for b in cube_roots(c, 2, 4):
        assert decode_code(ctx, encode_root(ctx, b)) == b


def test_brute_root_counters_refuse_parameter_gates():
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    for scan in (count_roots_brute, cube_roots):
        with pytest.raises(PreconditionError, match="plug_params"):
            scan(template, 1, 3)
    assert cube_roots(plug_params(template, {1: 2}), 1, 3) == [(0,)]


@pytest.mark.parametrize("n", [1, 3])
def test_brute_root_scans_refuse_a_wrong_dimension(n):
    for scan in (count_roots_brute, cube_roots):
        with pytest.raises(DimensionMismatchError, match=f"n={n} but circuit has 2 variables"):
            scan(product_circuit(), n, 2)


def test_context_refuses_a_nonroot_of_the_wrong_dimension():
    for nonroot in ((1,), (1, 1, 1)):
        with pytest.raises(DimensionMismatchError, match=f"nonroot has length {len(nonroot)}"):
            SZContext(product_circuit(), 2, 1, 4, nonroot)


def test_context_resolves_plugged_parameters():
    # P = x1*x2 - p1 with p1 plugged to 4: roots on S_5^2 are the factor
    # pairs of 4.
    c = plug_params(
        circuit([Gate.var(1), Gate.var(2), Gate.param(1), Gate.const(-1),
                 Gate.mul(2, 3), Gate.mul(0, 1), Gate.add(5, 4)]),
        {1: 4},
    )
    ctx = SZContext(c, 2, 1, 5, (0, 0))  # P(0,0) = -4, a genuine non-root
    assert ctx.nonroot_ok
    roots = cube_roots(c, 2, 5)
    assert set(roots) == {(1, 4), (2, 2), (4, 1)}
    for b in roots:
        assert decode_code(ctx, encode_root(ctx, b)) == b


@pytest.mark.parametrize("make, error, message", [
    (lambda: RootCode(0, 1, (0,)).validate(2, 1, 3), PreconditionError, "k=0 outside [1..2]"),
    (lambda: RootCode(1, 2, (0,)).validate(2, 1, 3), PreconditionError, "i=2 outside [1..1]"),
    (lambda: RootCode(1, 1, ()).validate(2, 1, 3), DimensionMismatchError,
     "rest has length 0, want 1"),
    (lambda: RootCode(1, 1, (3,)).validate(2, 1, 3), PreconditionError, "rest entry 3 outside S_3"),
    (lambda: parse_code("1:2"), PreconditionError, "bad code '1:2', want k:i:c1,c2,..."),
    (lambda: SZContext(product_circuit(), 0, 1, 2, ()), PreconditionError,
     "the codec needs dimension n >= 1"),
    (lambda: SZContext(product_circuit(), 3, 1, 2, (1, 1, 1)), DimensionMismatchError,
     "n=3 but circuit has 2 variables"),
    (lambda: SZContext(product_circuit(), 2, 1, 0, (1, 1)), PreconditionError,
     "q must be positive"),
    (lambda: SZContext(product_circuit(), 2, 1, DEFAULT_Q_CAP + 1, (1, 1)), CapExceededError,
     f"q={DEFAULT_Q_CAP + 1} exceeds the cap {DEFAULT_Q_CAP}"),
    (lambda: codec_mod.restrict(product_circuit(), 1, (5, 6)), DimensionMismatchError,
     "2 fixed values for 2 variables"),
    (lambda: encode_root(ctx_product(), (0,)), DimensionMismatchError,
     "point has length 1, want 2"),
], ids=["k", "i", "rest-length", "rest-entry", "parse-code", "n-below-1", "n-not-n-vars",
        "q-below-1", "q-past-cap", "restrict-length", "encode-length"])
def test_codec_refusals_name_the_bad_value(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
def test_code_reader_strips_ascii_whitespace_only(space):
    assert parse_code(" \t1:0:2, 3\r\n") == RootCode(1, 0, (2, 3))
    for text in (f"{space}1:0:2", f"1:0:2{space}", f"1:{space}0:"):
        with pytest.raises(PreconditionError) as exc:
            parse_code(text)
        assert str(exc.value) == f"bad code {text!r}, want k:i:c1,c2,..."
