"""Total Boolean functions on fixed-width bit strings, and the .bc format.

A bit string of width w is an int in [0, 2^w) whose bit j (0-based) is
position j of the string, so ``int_to_bit_str`` writes it as 0/1
characters with bit 0 first: the one text form, for traces and verdicts.
A ``BoolFunc`` is table-backed: all 2^in_bits rows are materialized, each
as one int of out_bits bits, which is the right trade at desk scale, keeps
amplification walks cheap and stays small for wide outputs.  An input
outside [0, 2^in_bits), or a row outside [0, 2^out_bits), is refused with
``DimensionMismatchError``.

Boolean circuits use a dedicated grammar (extension ``.bc``) so Boolean and
algebraic semantics can never be confused::

    g0 = var x1
    g1 = var x2
    g2 = xor g0 g1
    g3 = not g2
    g4 = const 1
    g5 = and g3 g4
    output g2 g5        # multi-output: one gate id per output bit

Gate kinds: var, const 0|1, and, or, xor, not.  Evaluated at the int x,
var xk reads bit k - 1 of x, and output j is bit j of the result.  The
text is read, never written, through the .ac statement reader, so its
comments, indents, dense gate ids and located errors are those of .ac.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .circuit import _check_naming, _literal, _statements
from .errors import CircuitSyntaxError, CircuitValidationError, DimensionMismatchError


def int_to_bit_str(v: int, width: int) -> str:
    """The low ``width`` bits of v as 0/1 characters, least significant
    first; a negative v gives its two's-complement bits, and a width of
    0 or less gives ``""``."""
    if width <= 0:
        return ""
    # The bit set at width keeps the low bits' leading zeros in bin's text.
    return bin(v & ((1 << width) - 1) | 1 << width)[:2:-1]


@dataclass(frozen=True)
class BoolFunc:
    """A total function {0,1}^in_bits -> {0,1}^out_bits, stored as a table
    of ints: ``rows[x]`` is the output at the input x.  An int row takes
    about out_bits / 8 bytes."""

    in_bits: int
    out_bits: int
    rows: Tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != 1 << self.in_bits:
            raise DimensionMismatchError(
                f"table has {len(self.rows)} rows, want {1 << self.in_bits}"
            )
        if min(self.rows) < 0 or max(self.rows) >> self.out_bits:
            raise DimensionMismatchError(f"a row is outside [0, 2^{self.out_bits})")

    def __call__(self, x: int) -> int:
        # Unchecked, a negative x would read a row from the end of the table.
        if not 0 <= x < len(self.rows):
            raise DimensionMismatchError(f"input {x!r} outside [0, 2^{self.in_bits})")
        return self.rows[x]


def boolfunc_from_callable(fn: Callable[[int], int], in_bits: int, out_bits: int) -> BoolFunc:
    """Tabulate fn over [0, 2^in_bits); a row outside [0, 2^out_bits) is refused."""
    return BoolFunc(in_bits, out_bits, tuple(map(fn, range(1 << in_bits))))


# -- Boolean circuits ------------------------------------------------------

_B_GATE_RE = re.compile(
    r"^g(?P<id>[0-9]+) = (?:"
    r"var x(?P<var>[0-9]+)"
    r"|const (?P<const>[01])"
    r"|(?P<binop>and|or|xor) g(?P<lhs>[0-9]+) g(?P<rhs>[0-9]+)"
    r"|not g(?P<neg>[0-9]+)"
    r")$"
)
_B_OUTPUT_RE = re.compile(r"^output(?P<ids>( g[0-9]+)+)$")
_B_ID_RE = re.compile(r"g(?P<id>[0-9]+)")


@dataclass(frozen=True)
class BoolGate:
    op: str  # "var" | "const" | "and" | "or" | "xor" | "not"
    name: int = 0
    value: int = 0
    lhs: int = -1
    rhs: int = -1


@dataclass(frozen=True)
class BoolCircuit:
    gates: Tuple[BoolGate, ...]
    outputs: Tuple[int, ...]
    n_vars: int

    def __post_init__(self):
        if not self.gates:
            raise CircuitValidationError("empty gate list")
        names = set()
        for i, g in enumerate(self.gates):
            if g.op in ("and", "or", "xor"):
                if g.lhs >= i or g.rhs >= i or g.lhs < 0 or g.rhs < 0:
                    raise CircuitValidationError(f"gate {i}: bad operand reference")
            elif g.op == "not":
                if g.lhs >= i or g.lhs < 0:
                    raise CircuitValidationError(f"gate {i}: bad operand reference")
            elif g.op == "var":
                names.add(g.name)
            elif g.op != "const":
                raise CircuitValidationError(f"gate {i}: unknown gate kind {g.op!r}")
        _check_naming(names, set(), self.n_vars, 0)
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise CircuitValidationError(f"output references missing gate g{o}")


def bool_circuit(gates, outputs) -> BoolCircuit:
    gates = tuple(gates)
    n_vars = max((g.name for g in gates if g.op == "var"), default=0)
    return BoolCircuit(gates, tuple(outputs), n_vars)


def parse_bool_circuit(text: str) -> BoolCircuit:
    """Read the .bc format through the .ac statement reader, so comments,
    indents, gate ids, the output line and every located error are as in
    :func:`szpit.circuit.parse_circuit`."""
    gates: List[BoolGate] = []
    for m, lineno, at in _statements(text, _B_GATE_RE, _B_OUTPUT_RE):
        if m.re is _B_OUTPUT_RE:
            ids = _B_ID_RE.finditer(m.string, m.start("ids"))
            outputs = [_literal(t, "id", lineno, at) for t in ids]
        elif m.group("var") is not None:
            gates.append(BoolGate("var", name=_literal(m, "var", lineno, at)))
        elif m.group("const") is not None:
            gates.append(BoolGate("const", value=int(m.group("const"))))
        else:
            refs = [_literal(m, k, lineno, at) for k in ("lhs", "rhs", "neg") if m.group(k)]
            if max(refs) >= len(gates):
                raise CircuitSyntaxError(f"forward reference in g{len(gates)}", lineno, at + 1)
            gates.append(BoolGate(m.group("binop") or "not", 0, 0, *refs))
    try:
        return bool_circuit(gates, outputs)
    except CircuitValidationError as e:
        raise CircuitSyntaxError(str(e), 0, 0) from e


def eval_bool_circuit(c: BoolCircuit, x: int) -> int:
    if not 0 <= x < 1 << c.n_vars:
        raise DimensionMismatchError(f"input {x!r} outside [0, 2^{c.n_vars})")
    values = [0] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == "var":
            values[i] = x >> (g.name - 1) & 1
        elif g.op == "const":
            values[i] = g.value
        elif g.op == "and":
            values[i] = values[g.lhs] & values[g.rhs]
        elif g.op == "or":
            values[i] = values[g.lhs] | values[g.rhs]
        elif g.op == "xor":
            values[i] = values[g.lhs] ^ values[g.rhs]
        else:
            values[i] = 1 - values[g.lhs]
    return sum(values[o] << j for j, o in enumerate(c.outputs))
