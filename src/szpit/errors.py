"""Exception hierarchy for the szpit library.

Every failure mode the library reports deliberately is a subclass of
``SzpitError``; anything else escaping the public API is a bug.
"""

from __future__ import annotations


class SzpitError(Exception):
    """Base class for all library errors."""


class CircuitSyntaxError(SzpitError):
    """Malformed circuit text.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class CircuitValidationError(SzpitError):
    """A structural circuit invariant is violated (gate index in message)."""


class DimensionMismatchError(SzpitError):
    """A vars tuple, point or packed params R outside the circuit's dimensions."""


class DegreeBoundError(SzpitError):
    """Syntactic degree exceeds the caller-supplied unary bound."""


class BitLengthGuardError(SzpitError):
    """An intermediate value exceeded the configured bit-length guard."""


class CapExceededError(SzpitError):
    """An exhaustive operation would exceed the configured cap."""


class PreconditionError(SzpitError):
    """A stated operation precondition does not hold (named in message)."""


class ZeroOnCubeError(SzpitError):
    """Witness search proved the circuit vanishes on the whole cube."""

    def __init__(self, trials: int, points: int):
        super().__init__(
            f"no non-root exists on the cube ({points} points scanned, "
            f"{trials} random trials first)"
        )
        self.trials = trials
        self.points = points


class WitnessBudgetError(SzpitError):
    """Witness sampling budget exhausted and the cube is too large to scan.

    Distinguishes "probably zero" from a proven zero: the circuit may still
    be non-vanishing, we just failed to exhibit a witness.
    """

    def __init__(self, trials: int):
        super().__init__(f"witness budget exhausted after {trials} trials; cube not scannable")
        self.trials = trials


class SearchBudgetError(SzpitError):
    """Hitting-set sampling budget exhausted."""

    def __init__(self, draws: int, last_miss: str | None = None):
        detail = f" (last miss: description {last_miss})" if last_miss is not None else ""
        super().__init__(f"no verified hitting set within {draws} draws{detail}")
        self.draws = draws
        self.last_miss = last_miss


class OracleError(SzpitError):
    """An oracle answer failed re-verification."""


class InversionFailedError(SzpitError):
    """The amplification-inversion procedure halted on its fail branch."""


class StageError(SzpitError):
    """A pipeline stage failed; wraps the cause with stage provenance."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
