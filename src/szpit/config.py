"""Library-wide caps and defaults.

Every exhaustive operation is bounded by a cap here, so pathological
inputs fail cleanly instead of running for hours; an operation whose cap
some caller sets takes it as an argument defaulting to the value here.
The bit-length guard bounds every intermediate integer produced by
circuit evaluation; growth is only guaranteed polynomial under the unary
degree bound, and the guard converts anything else into a clean error.
"""

from __future__ import annotations

# Exhaustive enumeration budget: cube scans, code-space scans, class images.
DEFAULT_EXHAUSTION_CAP = 1 << 22

# Maximum bit length of any intermediate value during evaluation.
DEFAULT_BITLEN_GUARD = 1 << 20

# Largest q accepted by root enumeration (q is a unary-semantics quantity).
DEFAULT_Q_CAP = 1 << 16

# Largest 2^m for deterministic class enumeration in hitting-set verification.
DEFAULT_CLASS_CAP = 1 << 16

# Default number of random trials before witness search falls back to a scan.
DEFAULT_WITNESS_BUDGET = 64

# Default number of hitting-set draws before giving up.
DEFAULT_SEARCH_BUDGET = 64
