"""Shared exception types and the parameter checks every layer applies.

``check_band`` is the one statement of the band condition
0 <= r1 <= r2 <= n//2 (and, given an origin weight t, 0 <= t <= r2);
``check_tol`` is the one check on a caller's bisection or comparison
tolerance.
"""

import math


class InvalidDegreeError(ValueError):
    """Polynomial degree out of range for the ambient dimension."""


class InvalidParameterError(ValueError):
    """Parameters violate a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed the configured resource budget."""


def check_band(n: int, r1: int, r2: int, t: int | None = None) -> None:
    """Reject a weight band [r1, r2] of {0,1}^n, or an origin weight t, out of range."""
    if n < 0 or not 0 <= r1 <= r2 <= n // 2:
        raise InvalidParameterError(
            f"radii must satisfy 0 <= r1 <= r2 <= n//2, got r1={r1}, r2={r2}, n={n}"
        )
    if t is not None and not 0 <= t <= r2:
        raise InvalidParameterError(f"need 0 <= t <= r2, got t={t}, r2={r2}")


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite and positive (a NaN never ends a bisection)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tolerance must be finite and positive, got {tol!r}")
