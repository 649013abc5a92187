"""Exception types shared across the package."""

from __future__ import annotations

from numbers import Integral

#: seeds are unsigned 64-bit integers: 0 <= seed < SEED_BOUND
SEED_BOUND = 2**64


class GraphParseError(ValueError):
    """Malformed graph or vector file. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(ValueError):
    """A parameter is outside its valid domain, or a supplied value fails validation."""


#: name -> (membership test, domain as the error message states it)
_DOMAINS = {
    "epsilon": (lambda v: 0.0 < v < 1.0, "in (0, 1), got {}"),
    "beta": (lambda v: 0.0 < v <= 1.0, "in (0, 1], got {}"),
    "c0": (lambda v: v > 0.0, "positive, got {}"),
    "seed": (
        lambda v: isinstance(v, Integral) and 0 <= v < SEED_BOUND,
        "an unsigned 64-bit integer, got {!r}",
    ),
}


def check(**values) -> None:
    """Raise ParameterError for the first value outside its parameter's domain."""
    for name, value in values.items():
        accepts, domain = _DOMAINS[name]
        if not accepts(value):
            raise ParameterError(f"{name} must be {domain.format(value)}")


class FactorizationError(RuntimeError):
    """A dense factorization failed to converge, or its result failed a cross-check.

    ``condition_estimate`` holds a rough condition number of the offending
    matrix when one could be computed, else ``inf``.
    """

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        self.condition_estimate = condition_estimate
        super().__init__(f"{message} (condition estimate: {condition_estimate:.3e})")
