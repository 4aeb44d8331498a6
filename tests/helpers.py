"""Small helpers that only the tests use."""

from __future__ import annotations

import importlib
from typing import Iterable, List, Tuple

from szpit.circuit import CONST, Circuit, DegreeReport, analyze_degrees
from szpit.codec import RootCode, SZContext, decode_code
from szpit.config import DEFAULT_BITLEN_GUARD
from szpit.errors import DegreeBoundError, DimensionMismatchError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass


def count_degree_passes(monkeypatch) -> List[Circuit]:
    """Record every uncached degree analysis; returns the growing list.

    ``szpit.circuit`` is looked up by module name because the package's
    ``circuit`` attribute is the constructor function of the same name.
    """
    circuit_mod = importlib.import_module("szpit.circuit")
    calls: List[Circuit] = []
    real = circuit_mod._degree_pass

    def counting(c: Circuit) -> DegreeReport:
        calls.append(c)
        return real(c)

    monkeypatch.setattr(circuit_mod, "_degree_pass", counting)
    return calls


def eval_many(
    c: Circuit,
    points: Iterable[Tuple[int, ...]],
    degree_bound: int | None = None,
    bitlen_guard: int = DEFAULT_BITLEN_GUARD,
):
    """Yield evaluations at many variable assignments, checking degree once."""
    if degree_bound is not None:
        total = analyze_degrees(c).total
        if total > degree_bound:
            raise DegreeBoundError(f"syntactic degree {total} > {degree_bound}")
    for p in points:
        if len(p) != c.n_vars:
            raise DimensionMismatchError(f"point {p!r} for dimension {c.n_vars}")
        yield eval_gates(c, p, (), bitlen_guard)


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
