"""Small helpers that only the tests use."""

from __future__ import annotations

import copy
import importlib
import pickle
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, List, Tuple

import pytest

from szpit.avoid import AvoidInstance
from szpit.boolfunc import BoolCircuit, BoolFunc, boolfunc_from_callable, eval_bool_circuit
from szpit.circuit import CONST, Circuit, DegreeReport, Gate, analyze_degrees, circuit
from szpit.codec import RootCode, SZContext, decode_code
from szpit.config import DEFAULT_BITLEN_GUARD
from szpit.errors import DegreeBoundError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass
from szpit.rng import Rng
from szpit.unipoly import UniPoly

from oracles import bits_to_int


# Decimal digits outside ASCII, which int() reads: Arabic-Indic and fullwidth.
SCRIPTS = {"arabic-indic": 0x0660, "fullwidth": 0xFF10}

# Spaces that str.strip() and str.split() take and no writer emits: three
# outside ASCII, and the ASCII unit separator, which C's isspace() and
# string.whitespace leave out.
SPACES = {"no-break": "\u00a0", "em": "\u2003", "ideographic": "\u3000", "unit-separator": "\x1f"}

# Every str.splitlines() line break but "\n" and "\r\n", by name: a lone CR,
# VT, FF, the file, group and record separators, NEL, and the Unicode line
# and paragraph separators.  The text readers end lines at "\n" only.
LINE_BREAKS = {
    "cr": "\r", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
    "nel": "\x85", "ls": "\u2028", "ps": "\u2029",
}


def assert_exact_frozen(x, want) -> None:
    """x is an instance of exactly want's class, equal to want with the
    same hash; each field refuses assignment and deletion; and pickle, at
    every protocol, and deepcopy give back an equal instance of that class."""
    assert type(x) is type(want)
    assert x == want and hash(x) == hash(want)
    for f in want.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(FrozenInstanceError):
            delattr(x, f)
    backs = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in (*backs, copy.deepcopy(x)):
        assert type(back) is type(want) and back == want


def in_script(text: str, zero: int) -> str:
    """text with each ASCII digit d written as chr(zero + d)."""
    return text.translate({0x30 + d: zero + d for d in range(10)})


def instance_to_tsv(inst: AvoidInstance) -> str:
    """The instance as the 'x<TAB>f(x)' lines that instance_from_tsv reads."""
    return "\n".join(f"{x}\t{y}" for x, y in enumerate(inst.table, start=1)) + "\n"


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


def members(cls: DefinableClass) -> Iterator[Tuple[int, Circuit]]:
    """Every description of the class with its member, params plugged."""
    for x in cls.descriptions():
        yield x, cls.member(x)


def random_bits(rng: Rng, m: int) -> int:
    """A uniform description of length m: bit j is the j-th draw of randrange(2)."""
    return sum(rng.randrange(2) << j for j in range(m))


def g_map(
    cls: DefinableClass,
    x: str,
    a: Tuple[int, ...],
    codes: Iterable[RootCode],
    q: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Batch-decode candidate root codes against the member whose
    description has text x (character j is bit j) at reference a.

    When the member vanishes at a, every component decodes to the all-zero
    point, so the output is the all-zero tuple (the don't-care value).
    """
    ctx = SZContext(cls.member(bits_to_int(map(int, x))), cls.n, cls.d, q, a)
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


def serialize_bool_circuit(c: BoolCircuit) -> str:
    """The .bc text of c, as parse_bool_circuit reads it."""
    lines = []
    for i, g in enumerate(c.gates):
        if g.op == "var":
            lines.append(f"g{i} = var x{g.name}")
        elif g.op == "const":
            lines.append(f"g{i} = const {g.value}")
        elif g.op == "not":
            lines.append(f"g{i} = not g{g.lhs}")
        else:
            lines.append(f"g{i} = {g.op} g{g.lhs} g{g.rhs}")
    lines.append("output " + " ".join(f"g{o}" for o in c.outputs))
    return "\n".join(lines) + "\n"


def boolfunc_from_circuit(c: BoolCircuit) -> BoolFunc:
    """The function a Boolean circuit computes, tabulated."""
    return boolfunc_from_callable(lambda x: eval_bool_circuit(c, x), c.n_vars, len(c.outputs))


def bit_complexity(p: UniPoly) -> int:
    """Maximum coefficient bit length (0 for the zero polynomial)."""
    return max((abs(v).bit_length() for v in p.coeffs), default=0)
