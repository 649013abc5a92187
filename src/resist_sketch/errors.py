"""Exception types shared across the package."""

from __future__ import annotations

import math
from decimal import Decimal
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


def _integer_in(lo, hi):
    """Membership test for integers (numpy's included) in [lo, hi)."""
    return lambda v: isinstance(v, Integral) and lo <= v < hi


#: name -> (membership test, the error message)
_DOMAINS = {
    "epsilon": (lambda v: 0.0 < v < 1.0, "epsilon must be in (0, 1), got {}"),
    "beta": (lambda v: 0.0 < v <= 1.0, "beta must be in (0, 1], got {}"),
    "c0": (lambda v: v > 0.0, "c0 must be positive, got {}"),
    "seed": (_integer_in(0, SEED_BOUND), "seed must be an unsigned 64-bit integer, got {!r}"),
    "trials": (_integer_in(1, math.inf), "trials must be a positive integer, got {!r}"),
    "r_override": (_integer_in(1, math.inf), "r override must be a positive integer, got {!r}"),
    # the multinomial draw counts in signed 64-bit integers
    "r": (_integer_in(1, 2**63), "sample count must be a positive integer below 2**63, got {!r}"),
}


class _Rounded(str):
    """An integer's 4-digit e-form, the same under {} and {!r}."""

    __repr__ = str.__str__


def _shown(value):
    """The value, or an integer of more than 20 digits as e.g. 2.013e+205."""
    if isinstance(value, Integral) and abs(value) >= 10**20:
        return _Rounded(format(Decimal(int(value)), ".3e"))
    return value


def check(**values) -> None:
    """Raise ParameterError for the first value outside its parameter's domain."""
    for name, value in values.items():
        accepts, message = _DOMAINS[name]
        if not accepts(value):
            raise ParameterError(message.format(_shown(value)))


class FactorizationError(RuntimeError):
    """A dense factorization failed, or its result failed a cross-check."""
