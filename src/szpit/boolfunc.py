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
var xk reads bit k - 1 of x, and output j is bit j of the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

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
    r"^g(?P<id>\d+) = (?:"
    r"var x(?P<var>\d+)"
    r"|const (?P<const>[01])"
    r"|(?P<binop>and|or|xor) g(?P<lhs>\d+) g(?P<rhs>\d+)"
    r"|not g(?P<neg>\d+)"
    r")$"
)
_B_OUTPUT_RE = re.compile(r"^output(?P<ids>( g\d+)+)$")


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
        if names != set(range(1, self.n_vars + 1)):
            raise CircuitValidationError("gap in variable naming")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise CircuitValidationError(f"output references missing gate g{o}")


def bool_circuit(gates, outputs) -> BoolCircuit:
    gates = tuple(gates)
    n_vars = max((g.name for g in gates if g.op == "var"), default=0)
    return BoolCircuit(gates, tuple(outputs), n_vars)


def parse_bool_circuit(text: str) -> BoolCircuit:
    gates: List[BoolGate] = []
    outputs = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if outputs is not None:
            raise CircuitSyntaxError("statement after output line", lineno, 1)
        m = _B_OUTPUT_RE.match(line)
        if m:
            outputs = tuple(int(tok[1:]) for tok in m.group("ids").split())
            continue
        m = _B_GATE_RE.match(line)
        if m is None:
            raise CircuitSyntaxError(f"cannot parse statement {line!r}", lineno, 1)
        gate_id = int(m.group("id"))
        if gate_id != len(gates):
            raise CircuitSyntaxError(f"bad gate id g{gate_id}", lineno, 2)
        if m.group("var") is not None:
            gates.append(BoolGate("var", name=int(m.group("var"))))
        elif m.group("const") is not None:
            gates.append(BoolGate("const", value=int(m.group("const"))))
        elif m.group("neg") is not None:
            ref = int(m.group("neg"))
            if ref >= gate_id:
                raise CircuitSyntaxError(f"forward reference in g{gate_id}", lineno, 1)
            gates.append(BoolGate("not", lhs=ref))
        else:
            lhs, rhs = int(m.group("lhs")), int(m.group("rhs"))
            if lhs >= gate_id or rhs >= gate_id:
                raise CircuitSyntaxError(f"forward reference in g{gate_id}", lineno, 1)
            gates.append(BoolGate(m.group("binop"), lhs=lhs, rhs=rhs))
    if outputs is None:
        raise CircuitSyntaxError("missing output line", 0, 0)
    try:
        return bool_circuit(gates, outputs)
    except CircuitValidationError as e:
        raise CircuitSyntaxError(str(e), 0, 0) from e


def serialize_bool_circuit(c: BoolCircuit) -> str:
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
