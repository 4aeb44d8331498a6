"""Builtin definable classes of algebraic circuits.

These are the stock decoders used by the CLI and the test suites:

  multilinear   m = 2^n coefficient bits, one per monomial of z_1..z_n with
                exponents in {0,1}; description 0^m is the zero polynomial.
  linear        m = n bits choosing which variables appear in c_1 z_1 + ...
  monomial      m = 1 bit switching z_1 * ... * z_n on or off.
  all-circuits  a compact binary gate encoding covering Ckt(n, d, s);
                descriptions that fail to decode, or decode outside the
                slice, fall back to the constant-0 circuit.

The first three are template classes of one layout, written by
``_monomial_sum_class``: the var gates, then per monomial k the gate
``param pk`` and one mul per variable in it, then the add chain.  They
have no ``params_of``, so the description x is itself the packed params
R: bit k - 1 of x, character k - 1 of its text, switches monomial k.
Decoder surjectivity onto an intended class is a trust assumption; nothing
here can verify it for the all-circuits encoding.
"""

from __future__ import annotations

from typing import List, Sequence

from .boolfunc import int_to_bit_str
from .circuit import Circuit, Gate, circuit
from .errors import CircuitValidationError, PreconditionError
from .hitting import DefinableClass


def _monomial_sum_class(n: int, masks: Sequence[int], d: int, s: int) -> DefinableClass:
    """The template class summing pk times monomial k, the product of the
    z_j whose bit j - 1 is set in masks[k - 1]."""
    gates: List[Gate] = [Gate.var(j) for j in range(1, n + 1)]
    terms = []
    for k, mask in enumerate(masks, start=1):
        gates.append(Gate.param(k))
        for j in range(n):
            if mask >> j & 1:
                gates.append(Gate.mul(len(gates) - 1, j))
        terms.append(len(gates) - 1)
    acc = terms[0]
    for t in terms[1:]:
        gates.append(Gate.add(acc, t))
        acc = len(gates) - 1
    return DefinableClass(decoder=None, template=circuit(gates), n=n, d=d, s=s, m=len(masks))


def multilinear_class(n: int, d: int = 1, s: int = 0) -> DefinableClass:
    """All 2^(2^n) multilinear 0/1-coefficient polynomials in n variables."""
    return _monomial_sum_class(n, range(1 << n), max(d, 1), s)


def linear_class(n: int, s: int = 0) -> DefinableClass:
    """The 2^n sums of a subset of the variables (degree 1)."""
    if n < 1:  # no terms to sum; DefinableClass refuses it with this text
        raise PreconditionError("class parameters must satisfy n,d,s >= 1 and m >= 0")
    return _monomial_sum_class(n, [1 << j for j in range(n)], 1, s)


def monomial_class(n: int, s: int = 0) -> DefinableClass:
    """{0, z_1 * z_2 * ... * z_n}, description length 1."""
    return _monomial_sum_class(n, [(1 << n) - 1], 1, s)


# -- all-circuits binary decoder --------------------------------------------

_CONST_FIELD = 5  # two's-complement value field for const gates


class _BitReader:
    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def take(self, width: int) -> int:
        if self.pos + width > len(self.bits):
            raise EOFError
        v = int(self.bits[self.pos : self.pos + width] or "0", 2) if width else 0
        self.pos += width
        return v


def _decode_gates(x: str, n: int) -> Circuit:
    """Read gate records until the bits run out; kind(2) + payload.

    00 var(idx), 01 const(two's complement), 10 add(ops), 11 mul(ops);
    operand/variable indices use just enough bits for the current prefix.
    """
    reader = _BitReader(x)
    gates: List[Gate] = []
    var_width = max(1, (n - 1).bit_length()) if n > 1 else 0
    try:
        while True:
            kind = reader.take(2)
            if kind == 0:
                idx = reader.take(var_width) if var_width else 0
                if idx >= n:
                    break
                gates.append(Gate.var(idx + 1))
            elif kind == 1:
                raw = reader.take(_CONST_FIELD)
                value = raw - (1 << _CONST_FIELD) if raw >> (_CONST_FIELD - 1) else raw
                gates.append(Gate.const(value))
            else:
                if not gates:
                    break
                op_width = max(1, (len(gates) - 1).bit_length())
                lhs = reader.take(op_width)
                rhs = reader.take(op_width)
                if lhs >= len(gates) or rhs >= len(gates):
                    break
                gates.append(Gate.add(lhs, rhs) if kind == 2 else Gate.mul(lhs, rhs))
    except EOFError:
        pass
    if not gates:
        raise CircuitValidationError("no decodable gates")
    # Variable naming gaps are repaired by renumbering the names that occur.
    seen = sorted({g.name for g in gates if g.op == "var"})
    renum = {name: i + 1 for i, name in enumerate(seen)}
    gates = [Gate.var(renum[g.name]) if g.op == "var" else g for g in gates]
    return circuit(gates)


def all_circuits_class(n: int, d: int, s: int, m: int) -> DefinableClass:
    """Ckt(n, d, s) presented through the compact binary gate encoding."""

    # The gate records read the text of x, bit 0 first.  A description with
    # no decodable gate raises, and DefinableClass.decode gives the zero member.
    return DefinableClass(
        decoder=lambda x: _decode_gates(int_to_bit_str(x, m), n), n=n, d=d, s=s, m=m
    )


BUILTIN_CLASSES = {
    "multilinear": lambda n, d, s, m: multilinear_class(n, d=d or 1, s=s),
    "linear": lambda n, d, s, m: linear_class(n, s=s),
    "monomial": lambda n, d, s, m: monomial_class(n, s=s),
    "all": lambda n, d, s, m: all_circuits_class(n, d, s, m),
}
