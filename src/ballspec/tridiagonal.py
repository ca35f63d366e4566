"""Symmetric tridiagonal eigenvalues via Sturm-count bisection.

All routines take the *squared* off-diagonal entries.  Callers in this
package have those squares exactly (small integers, or integers over 4),
so the Sturm recurrence never touches an inexact square root; only the
Gershgorin bracket and the dense inverse-iteration matrix take roots.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain

import numpy as np

from .errors import check_tol

_SAFMIN = 2.2250738585072014e-308
# The package's one default bisection tolerance (absolute, on eigenvalues and roots).
DEFAULT_TOL = 1e-12


def count_below(
    diag: Sequence[float], off_sq: Sequence[float], x: float, *, pivmin: float | None = None
) -> int:
    """Number of eigenvalues strictly below ``x``.

    Standard Sturm sign count on the sequence of leading-principal-minor
    ratios q_i = d_i - x - e2_i / q_{i-1}, with the LAPACK-style pivot floor
    (a q with |q| <= pivmin becomes -pivmin) to survive exact zeros.
    ``pivmin`` depends only on ``off_sq``; ``eigenvalue_k`` computes it once
    per matrix and passes it in.

    The floor is one branch on the sign of q, which for every float,
    including +-0.0 and NaN, counts and floors as the test |q| <= pivmin
    followed by q < 0 does.  A constant diagonal takes ``a = d - x`` once:
    Python evaluates ``d - x - e2 / q`` as ``(d - x) - e2 / q``, so every q
    has the same bits (a diagonal that mixes 0.0 and -0.0 can flip only the
    sign of a zero q, which the floor treats alike).  A leading zero coupling
    over q = inf makes row 0 the plain ``d - x``.
    """
    if pivmin is None:
        pivmin = _pivot_floor(off_sq)
    floor = -pivmin
    q, count = math.inf, 0
    couplings = chain((0.0,), off_sq)
    if diag.count(diag[0]) == len(diag):
        a = diag[0] - x
        for e2 in couplings:
            q = a - e2 / q
            if q < 0.0:
                count += 1
                if q >= floor:
                    q = floor
            elif q <= pivmin:
                q = floor
                count += 1
    else:
        for d, e2 in zip(diag, couplings):
            q = d - x - e2 / q
            if q < 0.0:
                count += 1
                if q >= floor:
                    q = floor
            elif q <= pivmin:
                q = floor
                count += 1
    return count


def _pivot_floor(off_sq: Sequence[float]) -> float:
    return _SAFMIN * max(1.0, max(off_sq, default=1.0))


def _gershgorin(diag: Sequence[float], off_sq: Sequence[float]) -> tuple[float, float]:
    off = np.sqrt(np.asarray(off_sq, dtype=float))
    spread = np.append(off, 0.0)  # row i: off[i] + off[i - 1], one term at either end
    spread[1:] += off
    if diag.count(diag[0]) == len(diag):
        # rounding is monotone, so d -+ the largest spread gives the extreme rows' bits
        widest = float(spread.max())
        lo, hi = diag[0] - widest, diag[0] + widest
    else:
        d = np.asarray(diag, dtype=float)
        lo = float((d - spread).min())
        hi = float((d + spread).max())
    pad = 1e-10 * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


# A guess that fails its check moves just inside the proven bound at most this often.
_RETRIES = 1


def _certified_count(diag, off_sq, k: int, lo: float, hi: float, guess: float, tol: float,
                     pivmin: float):
    """``count_below``, sweeping only where the checks of ``guess`` leave ``> k`` undecided.

    Runs the bisection of ``eigenvalue_k`` from (lo, hi), taking every
    decision from the guess (``mid > guess`` sets hi) with no sweep, then
    counts once at its final lo and once at its final hi, skipping an end
    that is already proven.  If count(lo) <= k < count(hi), each midpoint it
    set as lo is <= that lo and each one it set as hi is >= that hi; the
    floating-point Sturm count is monotone in x (Demmel, Dhillon & Ren,
    ETNA 1995), so the counted bisection decides each one the same way, and
    these two counts decide its whole run.  A failed check is a proven
    bound: the guess moves just inside it and the run is repeated, at most
    ``_RETRIES`` times.  The returned count sweeps only strictly between
    the proven bounds.
    """
    below, above = lo, hi  # the Gershgorin ends: count(lo) = 0 <= k < m = count(hi)
    for _ in range(1 + _RETRIES):
        a, b = lo, hi
        while b - a > 2.0 * tol:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            if mid > guess:
                b = mid
            else:
                a = mid
        if a > below:
            if count_below(diag, off_sq, a, pivmin=pivmin) > k:
                above, guess = a, math.nextafter(a, -math.inf)
                continue
            below = a
        if b < above:
            if count_below(diag, off_sq, b, pivmin=pivmin) <= k:
                below = guess = b
                continue
            above = b
        break

    def count(diag, off_sq, x, *, pivmin):
        if x >= above:
            return k + 1
        return k if x <= below else count_below(diag, off_sq, x, pivmin=pivmin)

    return count


def eigenvalue_k(
    diag: Sequence[float],
    off_sq: Sequence[float],
    k: int,
    tol: float = DEFAULT_TOL,
    guess: float | None = None,
) -> tuple[float, float]:
    """k-th smallest eigenvalue (0-based) with a certified half-width.

    Bisection keeps the invariant count(lo) <= k < count(hi); the returned
    half-width is the final bracket radius plus a few ulps of slop for the
    floating-point Sturm recurrence itself.

    A ``guess`` strictly inside the Gershgorin bracket is checked with two
    Sturm counts (``_certified_count``); the bisection then sweeps only at a
    midpoint those counts leave undecided, so the result is the same bits
    for any guess.  A guess within about ``tol`` of the eigenvalue costs two
    sweeps in all, a worse one at most ``2 * (1 + _RETRIES)`` more than none.
    Any other guess, NaN included, is ignored.
    """
    check_tol(tol)
    m = len(diag)
    if not 0 <= k < m:
        raise ValueError(f"eigenvalue index {k} out of range for dimension {m}")
    if m == 1:
        return float(diag[0]), 0.0
    lo, hi = _gershgorin(diag, off_sq)
    pivmin = _pivot_floor(off_sq)
    if guess is not None and lo < guess < hi:
        count = _certified_count(diag, off_sq, k, lo, hi, guess, tol, pivmin)
    else:
        count = count_below
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # hit floating-point resolution
        if count(diag, off_sq, mid, pivmin=pivmin) >= k + 1:
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo) + 4.0 * math.ulp(max(1.0, abs(value)))
    return value, radius


def eigenvalues_all(
    diag: Sequence[float],
    off_sq: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> tuple[list[float], list[float]]:
    """All eigenvalues ascending, each with its certified half-width."""
    values = []
    radii = []
    for k in range(len(diag)):
        v, r = eigenvalue_k(diag, off_sq, k, tol)
        values.append(v)
        radii.append(r)
    return values, radii


def eigenvector(diag: Sequence[float], off_sq: Sequence[float], lam: float) -> np.ndarray:
    """Unit eigenvector for a precomputed eigenvalue, by inverse iteration.

    Two iterations from e_1 with a slightly perturbed shift; e_1 is never
    orthogonal to the target since eigenvectors of an unreduced tridiagonal
    have a nonzero first coordinate.  Dense solves are fine at the tiny
    dimensions used here.
    """
    m = len(diag)
    if m == 1:
        return np.ones(1)
    a = np.diag(np.asarray(diag, dtype=float))
    offa = np.sqrt(np.asarray(off_sq, dtype=float))
    a += np.diag(offa, 1) + np.diag(offa, -1)
    scale = max(1.0, float(np.abs(a).max()))
    shift = lam + 1e-13 * scale
    v = np.zeros(m)
    v[0] = 1.0
    for _ in range(2):
        try:
            w = np.linalg.solve(a - shift * np.eye(m), v)
        except np.linalg.LinAlgError:
            shift += 1e-12 * scale
            w = np.linalg.solve(a - shift * np.eye(m), v)
        v = w / np.linalg.norm(w)
    residual = float(np.linalg.norm(a @ v - lam * v))
    if residual > 1e-8 * scale:
        raise ArithmeticError(
            f"inverse iteration failed to converge: residual {residual:.3e}"
        )
    return v
