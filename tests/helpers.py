"""Small helpers that only the tests use."""

from __future__ import annotations

import importlib
from typing import Iterable, Iterator, List, Tuple

from szpit.boolfunc import BoolCircuit, BoolFunc, boolfunc_from_callable, eval_bool_circuit
from szpit.circuit import CONST, Circuit, DegreeReport, Gate, analyze_degrees, circuit
from szpit.codec import RootCode, SZContext, decode_code
from szpit.config import DEFAULT_BITLEN_GUARD
from szpit.errors import DegreeBoundError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass
from szpit.rng import Rng
from szpit.unipoly import UniPoly


def count_degree_passes(monkeypatch) -> List[Circuit]:
    """Record every uncached degree analysis; returns the growing list.

    ``szpit.circuit`` is looked up by module name because the package's
    ``circuit`` attribute is the constructor function of the same name.
    """
    circuit_mod = importlib.import_module("szpit.circuit")
    calls: List[Circuit] = []
    real = circuit_mod._degree_pass

    def counting(c: Circuit, cap: int) -> DegreeReport:
        calls.append(c)
        return real(c, cap)

    monkeypatch.setattr(circuit_mod, "_degree_pass", counting)
    return calls


def eval_many(
    c: Circuit,
    points: Iterable[Tuple[int, ...]],
    degree_bound: int | None = None,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
):
    """Yield evaluations at many variable assignments, checking degree once
    (eval_gates checks each point's dimension)."""
    if degree_bound is not None:
        total = analyze_degrees(c).total
        if total > degree_bound:
            raise DegreeBoundError(f"syntactic degree {total} > {degree_bound}")
    for p in points:
        yield eval_gates(c, p, 0, bitlen_guard)


def members(cls: DefinableClass) -> Iterator[Tuple[str, Circuit]]:
    """Every description of the class with its member, params plugged."""
    for x in cls.descriptions():
        yield x, cls.member(x)


def random_bits(rng: Rng, m: int) -> str:
    """A uniform bit string of length m, one draw of randrange(2) a bit."""
    return "".join("01"[rng.randrange(2)] for _ in range(m))


def g_map(
    cls: DefinableClass,
    x: str,
    a: Tuple[int, ...],
    codes: Iterable[RootCode],
    q: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Batch-decode candidate root codes against member x at reference a.

    When the member vanishes at a, every component decodes to the all-zero
    point, so the output is the all-zero tuple (the don't-care value).
    """
    ctx = SZContext(cls.member(x), cls.n, cls.d, q, a)
    return tuple(decode_code(ctx, code) for code in codes)


def var_max(rep: DegreeReport) -> int:
    """Max individual degree over the variables only."""
    return max((d for u, d in rep.individual.items() if u.startswith("x")), default=0)


def constants(c: Circuit) -> Tuple[int, ...]:
    """The values of the circuit's const gates."""
    return tuple(g.value for g in c.gates if g.op == CONST)


def times_line_factors(c, j, roots):
    """c * prod_r (x_j - r) for a circuit whose gate j-1 is var x_j, as
    genckt builds them: each line along x_j then meets every r."""
    gates = list(c.gates)
    out = len(gates) - 1
    for r in roots:
        gates += [Gate.const(-r), Gate.add(j - 1, len(gates))]
        gates.append(Gate.mul(out, len(gates) - 1))
        out = len(gates) - 1
    return circuit(gates)


def shifted_power_plus_x2(e):
    """(x1 - 1)^e + x2 for e >= 2, the power a chain of e - 1 muls: gate
    m + 2 holds (x1 - 1)^m for m = 2..e."""
    gates = [Gate.var(1), Gate.var(2), Gate.const(-1), Gate.add(0, 2), Gate.mul(3, 3)]
    gates += [Gate.mul(i, 3) for i in range(4, e + 2)]
    return circuit(gates + [Gate.add(e + 2, 1)])


def boolfunc_from_circuit(c: BoolCircuit) -> BoolFunc:
    """The function a Boolean circuit computes, tabulated."""
    return boolfunc_from_callable(lambda x: eval_bool_circuit(c, x), c.n_vars, len(c.outputs))


def bit_complexity(p: UniPoly) -> int:
    """Maximum coefficient bit length (0 for the zero polynomial)."""
    return max((abs(v).bit_length() for v in p.coeffs), default=0)
