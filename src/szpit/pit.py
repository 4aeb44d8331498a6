"""Polynomial identity testing three ways.

All three testers decide "is the polynomial computed by this circuit
identically zero?" against the cube {0..q-1}^n of side q = max(1, 2nd),
where d is the maximum individual syntactic degree from the circuit's one
degree pass (no caller declares d or q):

  pit_cube_brute        exhaustive scan, the ground truth at desk scale
                        (zero on this cube implies zero everywhere);
  pit_random            seeded uniform sampling; a non-vanishing circuit is
                        caught by a single sample with probability >= 1/2,
                        so the error after k trials is at most 2^-k;
  pit_with_hitting_set  scan a caller-supplied hitting set H; sound only
                        when H was verified for a class containing the
                        circuit, which is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Tuple

from .circuit import Circuit, Gate, _assemble, analyze_degrees, require_parameter_free, shifted
from .config import DEFAULT_BITLEN_GUARD, DEFAULT_EXHAUSTION_CAP
from .errors import CapExceededError, DimensionMismatchError, PreconditionError
from .evaluator import eval_gates
from .hitting import HittingSet
from .rng import Rng

NONZERO = "NonZero"
ZERO_ON_CUBE = "ZeroOnCube"
PROBABLY_ZERO = "ProbablyZero"


@dataclass(frozen=True)
class PitVerdict:
    kind: str
    witness: Optional[Tuple[int, ...]] = None
    trials: Optional[int] = None
    provenance: str = "cube"  # "cube" | "random" | "hitting-set"

    @property
    def is_zero_verdict(self) -> bool:
        return self.kind != NONZERO

    def to_json(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.trials is not None:
            out["trials"] = self.trials
        return out


def _prepare(ckt: Circuit) -> Tuple[int, int]:
    """Check ckt is parameter-free and fix (n, q), q = max(1, 2nd)."""
    require_parameter_free(ckt, "identity testing")
    return ckt.n_vars, max(1, 2 * ckt.n_vars * analyze_degrees(ckt).max_individual)


def _scan(ckt: Circuit, points: Iterable, bitlen_guard: int, zero: PitVerdict) -> PitVerdict:
    """The first point where ckt is nonzero is the witness (zero's provenance), else zero."""
    for point in points:
        if eval_gates(ckt, point, 0, bitlen_guard) != 0:
            return PitVerdict(NONZERO, witness=point, provenance=zero.provenance)
    return zero


def pit_cube_brute(
    ckt: Circuit,
    cap: int = DEFAULT_EXHAUSTION_CAP,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> PitVerdict:
    """Scan the whole cube; the first lexicographic non-root wins."""
    n, q = _prepare(ckt)
    if q**n > cap:
        raise CapExceededError(f"cube size {q ** n} exceeds the cap {cap}")
    return _scan(ckt, product(range(q), repeat=n), bitlen_guard, PitVerdict(ZERO_ON_CUBE))


def pit_random(
    ckt: Circuit,
    trials: int,
    seed: int,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> PitVerdict:
    """Sample the cube uniformly; NonZero answers are never wrong."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    n, q = _prepare(ckt)
    rng = Rng(seed, "pit")
    zero = PitVerdict(PROBABLY_ZERO, trials=trials, provenance="random")
    return _scan(ckt, rng.points(n, q, trials), bitlen_guard, zero)


def pit_with_hitting_set(
    ckt: Circuit,
    h: HittingSet,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
) -> PitVerdict:
    """Scan H in order; zero verdicts carry hitting-set provenance."""
    require_parameter_free(ckt, "identity testing")
    if h.n != ckt.n_vars:
        raise DimensionMismatchError(
            f"hitting set dimension {h.n} != circuit dimension {ckt.n_vars}"
        )
    return _scan(ckt, h.points, bitlen_guard, PitVerdict(ZERO_ON_CUBE, provenance="hitting-set"))


def difference_circuit(f: Circuit, g: Circuit) -> Circuit:
    """The circuit f + (-1) * g over the shared variables."""
    require_parameter_free(f, "difference")
    require_parameter_free(g, "difference")
    if f.n_vars != g.n_vars:
        raise DimensionMismatchError(
            f"cannot compare {f.n_vars}-variable and {g.n_vars}-variable circuits"
        )
    gates = [*f.gates, *shifted(g.gates, len(f.gates))]
    f_out = len(f.gates) - 1
    g_out = len(gates) - 1
    gates.append(Gate.const(-1))
    gates.append(Gate.mul(len(gates) - 1, g_out))
    gates.append(Gate.add(f_out, len(gates) - 1))
    # Both halves are valid over the same variables and no params, so the
    # concatenation is too; it skips circuit()'s second check.
    return _assemble(tuple(gates), f.n_vars, 0)


def equiv_test(
    f: Circuit,
    g: Circuit,
    method: str = "cube",
    trials: int = 40,
    seed: int = 0,
    hitting_set: Optional[HittingSet] = None,
) -> PitVerdict:
    """PIT on the difference circuit f - g, bounded by its one degree pass
    (method "hs" needs no bound).  Its maximum individual degree is max(f's,
    g's, 1): the halves' constant keys are disjoint, and ``const -1`` adds one."""
    diff = difference_circuit(f, g)
    if method == "cube":
        return pit_cube_brute(diff)
    if method == "random":
        return pit_random(diff, trials=trials, seed=seed)
    if method == "hs":
        if hitting_set is None:
            raise PreconditionError("method 'hs' needs a hitting set")
        return pit_with_hitting_set(diff, hitting_set)
    raise PreconditionError(f"unknown method {method!r}")
