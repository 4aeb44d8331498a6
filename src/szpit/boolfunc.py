"""Total Boolean functions on fixed-width bit vectors, and the .bc format.

Bit vectors are tuples of 0/1; position j (0-based) carries weight 2^j, so
``bits_to_int`` and ``int_to_bits`` are least-significant-bit-first.  A
``BoolFunc`` is table-backed: all 2^in_bits rows are materialized, which is
the right trade at desk scale and keeps amplification walks cheap.

Boolean circuits use a dedicated grammar (extension ``.bc``) so Boolean and
algebraic semantics can never be confused::

    g0 = var x1
    g1 = var x2
    g2 = xor g0 g1
    g3 = not g2
    g4 = const 1
    g5 = and g3 g4
    output g2 g5        # multi-output: one gate id per output bit

Gate kinds: var, const 0|1, and, or, xor, not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .errors import CircuitSyntaxError, CircuitValidationError, DimensionMismatchError

Bits = Tuple[int, ...]


def bits_to_int(bits: Bits) -> int:
    v = 0
    for j, b in enumerate(bits):
        v |= (b & 1) << j
    return v


def int_to_bits(v: int, width: int) -> Bits:
    return tuple((v >> j) & 1 for j in range(width))


def bits_to_str(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def str_to_bits(s: str) -> Bits:
    return tuple(1 if ch == "1" else 0 for ch in s)


@dataclass(frozen=True)
class BoolFunc:
    """A total function {0,1}^in_bits -> {0,1}^out_bits, stored as a table."""

    in_bits: int
    out_bits: int
    table: Tuple[Bits, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.in_bits:
            raise DimensionMismatchError(
                f"table has {len(self.table)} rows, want {1 << self.in_bits}"
            )
        for row in self.table:
            if len(row) != self.out_bits:
                raise DimensionMismatchError(
                    f"row {row!r} has width != {self.out_bits}"
                )

    def __call__(self, bits: Bits) -> Bits:
        if len(bits) != self.in_bits:
            raise DimensionMismatchError(f"input width {len(bits)} != {self.in_bits}")
        return self.table[bits_to_int(bits)]

    def range_set(self) -> set:
        return set(self.table)


def boolfunc_from_callable(fn: Callable[[Bits], Bits], in_bits: int, out_bits: int) -> BoolFunc:
    table = tuple(tuple(fn(int_to_bits(v, in_bits))) for v in range(1 << in_bits))
    return BoolFunc(in_bits, out_bits, table)


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


def eval_bool_circuit(c: BoolCircuit, bits: Bits) -> Bits:
    if len(bits) != c.n_vars:
        raise DimensionMismatchError(f"input width {len(bits)} != {c.n_vars}")
    values = [0] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == "var":
            values[i] = bits[g.name - 1]
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
    return tuple(values[o] for o in c.outputs)
