"""Random circuit generators shared by the test modules.

Generators take an explicit Rng so every test is replayable from its seed.
"""

from __future__ import annotations

from typing import Optional

from szpit.circuit import Circuit, Gate, analyze_degrees, circuit
from szpit.rng import Rng

from helpers import var_max


def random_circuit(
    rng: Rng,
    n_vars: int,
    extra_gates: int,
    const_bits: int = 8,
    p_mul: float = 0.4,
    p_const: float = 0.15,
    n_params: int = 0,
) -> Circuit:
    """A random straight-line program over n_vars variables and n_params
    parameters.

    Starts from one var gate per variable and one param gate per parameter
    (so the naming has no gaps) and appends ``extra_gates`` random gates;
    the last gate is the output.
    """
    gates = [Gate.var(j) for j in range(1, n_vars + 1)]
    gates += [Gate.param(k) for k in range(1, n_params + 1)]
    for _ in range(max(1, extra_gates)):
        roll = rng.randrange(100)
        if roll < int(p_const * 100):
            gates.append(Gate.const(_random_const(rng, const_bits)))
        else:
            lhs = rng.randrange(len(gates))
            rhs = rng.randrange(len(gates))
            if roll < int((p_const + p_mul) * 100):
                gates.append(Gate.mul(lhs, rhs))
            else:
                gates.append(Gate.add(lhs, rhs))
    return circuit(gates)


def _random_const(rng: Rng, const_bits: int) -> int:
    width = rng.randint(1, const_bits)
    magnitude = rng.randrange(1 << width)
    return -magnitude if rng.randrange(2) else magnitude


def random_circuit_bounded(
    rng: Rng,
    n_vars: int,
    max_individual: int,
    extra_gates: int = 8,
    const_bits: int = 8,
    attempts: int = 200,
    require_nonzero_degree: bool = True,
) -> Optional[Circuit]:
    """Rejection-sample until the max individual syntactic degree fits."""
    for _ in range(attempts):
        c = random_circuit(rng, n_vars, extra_gates, const_bits)
        rep = analyze_degrees(c)
        if rep.max_individual > max_individual:
            continue
        if require_nonzero_degree and var_max(rep) < 1:
            continue
        return c
    return None
