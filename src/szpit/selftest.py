"""Desk-scale invariant suites behind the ``selftest`` subcommand.

Each check is small enough to run exhaustively in seconds and covers one
contract the library leans on; the full evidence lives in the test suite,
this is the field diagnostic.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Tuple

from .avoid import (
    AvoidInstance,
    _member_gates,
    amplify,
    avoid_via_hitting,
    desk_schedule,
    invert_amplified,
    normalize,
    solve_avoid_brute,
    triple_decode,
    triple_encode,
)
from .boolfunc import BoolFunc
from .circuit import Gate, circuit, parse_circuit, serialize_circuit
from .codec import (
    RootCode,
    SZContext,
    all_codes,
    count_roots_brute,
    cube_roots,
    decode_code,
    encode_root,
    pack_code,
    unpack_code,
)
from .config import DEFAULT_BITLEN_GUARD
from .evaluator import _interpret, eval_gates, keep
from .hitting import largeness_holds
from .pit import ZERO_ON_CUBE, equiv_test, pit_cube_brute
from .rng import Rng
from .unipoly import UniPoly, deflate, enumerate_roots, eval_unipoly, extract_unipoly


def _product_circuit():
    return circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])


def check_roundtrip_text() -> None:
    c = _product_circuit()
    assert parse_circuit(serialize_circuit(c)) == c


def check_kept_template() -> None:
    # The avoid template at m = 2, kept, runs as one compiled function of
    # (R, vars), generated on this Python; it must agree with the
    # interpreter.
    t = circuit(_member_gates(desk_schedule(2)).gates)
    keep(t)
    assert t._program.run is not None
    R = (1 << t.n_params) // 3
    for x in ((2, 5), (-3, 7), (0, 0)):
        assert eval_gates(t, x, R) == _interpret(t, x, R, DEFAULT_BITLEN_GUARD)


def check_extraction() -> None:
    # (x+1)(x-1) -> x^2 - 1
    c = circuit([
        Gate.var(1), Gate.const(1), Gate.add(0, 1),
        Gate.const(-1), Gate.add(0, 3), Gate.mul(2, 4),
    ])
    assert extract_unipoly(c, 2).coeffs == (-1, 0, 1)
    # x + 2 beside the const-only chain 2 * 3 + 1 = 7: their product
    # 7x + 14, and the chain squared, 49, an output of degree 0 at d = 0
    # and padded at d = 2.
    gates = [
        Gate.var(1), Gate.const(2), Gate.const(3), Gate.mul(1, 2),
        Gate.const(1), Gate.add(3, 4), Gate.add(0, 1),
    ]
    assert extract_unipoly(circuit(gates + [Gate.mul(5, 6)]), 1).coeffs == (14, 7)
    square = circuit(gates + [Gate.mul(5, 5)])
    assert extract_unipoly(square, 0).coeffs == (49,)
    assert extract_unipoly(square, 2).coeffs == (49, 0, 0)


def check_fta_half() -> None:
    rng = Rng(11, "selftest-fta")
    for _ in range(50):
        d = rng.randint(1, 6)
        q = rng.randint(1, 32)
        p = UniPoly(tuple(rng.randint(-9, 9) for _ in range(d + 1)))
        listed = [v for v in enumerate_roots(p, q) if v < q]
        brute = [u for u in range(q) if eval_unipoly(p, u) == 0]
        if not p.is_zero:
            assert listed == brute and len(brute) <= d


def check_deflation() -> None:
    p = UniPoly((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
    b = deflate(p, 2)
    for u in range(-5, 6):
        assert eval_unipoly(p, u) == (u - 2) * eval_unipoly(b, u)


def check_codec_roundtrip() -> None:
    c = _product_circuit()
    for q in (2, 3, 5):
        ctx = SZContext(c, 2, 1, q, (1, 1))
        roots = cube_roots(c, 2, q)
        for b in roots:
            assert decode_code(ctx, encode_root(ctx, b)) == b
        image = {decode_code(ctx, code) for code in all_codes(2, 1, q)}
        assert set(roots) <= image
    # From (1, 1), the root (0, 2) is found at hybrid 1 and (2, 0) only at
    # b itself (k = n), which encoding never evaluates a second time.
    ctx = SZContext(c, 2, 1, 3, (1, 1))
    assert encode_root(ctx, (0, 2)) == RootCode(1, 1, (2,))
    assert encode_root(ctx, (2, 0)) == RootCode(2, 1, (2,))


def check_root_count_bound() -> None:
    c = _product_circuit()
    for q in range(2, 9):
        assert count_roots_brute(c, 2, q) <= 1 * 2 * q


def check_pack_unpack() -> None:
    n, d, q = 2, 2, 3
    for idx in range(1, n * d * q ** (n - 1) + 1):
        assert pack_code(unpack_code(idx, n, d, q), n, d, q) == idx


def check_pit() -> None:
    x1 = circuit([Gate.var(1), Gate.var(2), Gate.add(0, 1)])
    x2 = circuit([Gate.var(2), Gate.var(1), Gate.add(0, 1)])
    assert equiv_test(x1, x2, method="cube").kind == ZERO_ON_CUBE
    assert pit_cube_brute(_product_circuit()).witness == (1, 1)


def check_largeness() -> None:
    assert largeness_holds(n=2, d=2, q=8, r=13, m=4)


def check_triple_codes() -> None:
    r, n, w = 3, 2, 4
    for i, j, k in product(range(1, r + 1), range(1, n + 1), range(1, w + 1)):
        assert triple_decode(triple_encode(i, j, k, r, n, w), r, n, w) == (i, j, k)


def check_normalization() -> None:
    rng = Rng(7, "selftest-norm")
    for a in range(1, 9):
        for _ in range(4):
            b = 2 * a + rng.randint(0, 4)
            inst = AvoidInstance(a, b, tuple(rng.randint(1, b) for _ in range(a)))
            g, backmap = normalize(inst)
            hit, seen = inst.range_set(), set(g.rows)
            for y in range(1 << g.out_bits):
                if y not in seen:
                    assert backmap(y) not in hit


def check_inversion() -> None:
    rng = Rng(9, "selftest-inv")
    m, t = 2, 3
    g = BoolFunc(m, m + 1, tuple(rng.randrange(1 << (m + 1)) for _ in range(1 << m)))
    h = amplify(g, t)
    h_range, g_range = set(h.rows), set(g.rows)
    for y in range(1 << (m + t)):
        if y not in h_range:
            assert invert_amplified(g, t, y) not in g_range


def check_avoid_end_to_end() -> None:
    inst = AvoidInstance(2, 4, (3, 3))
    result = avoid_via_hitting(inst, seed=5)
    assert result.value not in inst.range_set()
    assert solve_avoid_brute(inst) == 1


CHECKS: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("circuit text round-trip", check_roundtrip_text),
    ("kept template evaluation", check_kept_template),
    ("coefficient extraction", check_extraction),
    ("univariate root list completeness", check_fta_half),
    ("synthetic-division identity", check_deflation),
    ("root codec round-trip and surjectivity", check_codec_roundtrip),
    ("root-count bound", check_root_count_bound),
    ("code pack/unpack bijection", check_pack_unpack),
    ("identity testing", check_pit),
    ("hitting-set largeness arithmetic", check_largeness),
    ("triple-index bijection", check_triple_codes),
    ("normalization guarantee", check_normalization),
    ("amplification inversion soundness", check_inversion),
    ("range avoidance end to end", check_avoid_end_to_end),
)


def run_selftest(verbose: bool = True) -> List[str]:
    """Run every check; return the names that failed."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            status = f"FAIL ({exc})"
        if verbose:
            print(f"{status:4}  {name}")
    return failures
