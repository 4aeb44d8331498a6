#!/usr/bin/env python3
"""Circuits, degrees, coefficients, and root enumeration.

Walks the univariate toolkit end to end: build a circuit for
P(x) = (x + 1)(x - 1)(x - 4), inspect its syntactic degrees, pull out its
dense coefficient vector, list its roots on a cube, and peel one root off
by synthetic division.
"""

from szpit import (
    Gate,
    analyze_degrees,
    circuit,
    eval_arithmetic,
    serialize_circuit,
)
from szpit.unipoly import deflate, enumerate_roots, eval_unipoly, extract_unipoly

# P(x) = (x + 1)(x - 1)(x - 4), written as a straight-line program.
P = circuit([
    Gate.var(1),            # g0 = x
    Gate.const(1),          # g1
    Gate.add(0, 1),         # g2 = x + 1
    Gate.const(-1),         # g3
    Gate.add(0, 3),         # g4 = x - 1
    Gate.const(-4),         # g5
    Gate.add(0, 5),         # g6 = x - 4
    Gate.mul(2, 4),         # g7 = (x+1)(x-1)
    Gate.mul(7, 6),         # g8 = P(x)
])

print("The circuit, in its canonical text form:\n")
print(serialize_circuit(P))

report = analyze_degrees(P)
print(f"syntactic total degree : {report.total}")
print(f"individual degrees     : {report.individual}\n")

print("Evaluation is exact over the integers, guarded by a degree bound:")
for u in (0, 2, 10**6):
    print(f"  P({u}) = {eval_arithmetic(P, (u,), report.total)}")

# Coefficient extraction turns the circuit into a dense polynomial without
# ever expanding monomials explicitly: one pass over the gates, convolving
# coefficient vectors at multiplication gates.
poly = extract_unipoly(P, 3)
print(f"\ncoefficients (lowest degree first): {poly.coeffs}")
assert all(eval_unipoly(poly, u) == eval_arithmetic(P, (u,), 5)
           for u in range(-5, 6))

# Root enumeration on S_q = {0..q-1}: sorted distinct roots, padded with
# the end-of-list marker q.  Degree 3 means at most 3 slots ever fill.
for q in (3, 5, 16):
    print(f"roots in S_{q:<2}: {enumerate_roots(poly, q)}")

# Synthetic division by the known root 4.
quotient = deflate(poly, 4)
print(f"\nP(x) / (x - 4) has coefficients {quotient.coeffs}")
for u in (-3, 0, 7):
    assert eval_unipoly(poly, u) == (u - 4) * eval_unipoly(quotient, u)
print("checked: P(u) = (u - 4) * quotient(u) at several points")
