"""Symmetric tridiagonal eigenvalues via Sturm-count bisection.

All routines take the *squared* off-diagonal entries ``off_sq`` and the
constant diagonal ``d`` (0 for the origin blocks, N/2 for the Jacobi matrix)
of a matrix of ``len(off_sq) + 1`` rows.  The squares are exact (integers,
or integers over 4), so only the Gershgorin bracket and ``dense`` take roots.
``exact_count`` is the exact Sturm count at a dyadic point, integer squares
and diagonal, in Python integers; ``exact_count_sqrt`` the one at the square
root of an integer, for the zero diagonal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import check_tol

_SAFMIN = 2.2250738585072014e-308
# The package's one default bisection tolerance (absolute, on eigenvalues and roots).
DEFAULT_TOL = 1e-12


def count_below(off_sq: Sequence[float], d: float, x: float, *, pivmin: float | None = None) -> int:
    """Number of eigenvalues strictly below ``x``.

    Standard Sturm sign count on the sequence of leading-principal-minor
    ratios q_i = d - x - e2_i / q_{i-1}, with the LAPACK-style pivot floor
    (a q with |q| <= pivmin becomes -pivmin) to survive exact zeros.
    ``pivmin`` depends only on ``off_sq``; ``eigenvalue_k`` computes it once
    per matrix and passes it in.

    Row 0 is ``q = a = d - x``.  Each row makes one test, ``q <= pivmin``,
    on the common path; only a q that passes it is counted, and then floored
    if it is >= -pivmin.  As pivmin > 0, that counts and floors every float,
    +-0.0 and NaN included, as the test |q| <= pivmin followed by q < 0
    does.  The last row is counted and not floored: no row reads its q.
    ``a`` is taken once: Python evaluates ``d - x - e2 / q`` as
    ``(d - x) - e2 / q``, so every q has the same bits.
    """
    if pivmin is None:
        pivmin = _pivot_floor(off_sq)
    floor = -pivmin
    a = q = d - x
    count = 0
    for e2 in off_sq:
        if q <= pivmin:
            count += 1
            if q >= floor:
                q = floor
        q = a - e2 / q
    return count + (q <= pivmin)


def exact_count(couplings: Sequence[int], d: int, num: int, e: int) -> tuple[int, bool]:
    """(eigenvalues strictly below x, whether x is one) at x = num / 2^e, in integers.

    ``couplings`` are the squared off-diagonals and ``d`` the constant
    diagonal, all Python ints.  The leading minors D_j = 2^(e j) det(T_j - x)
    obey D_j = (d 2^e - num) D_(j-1) - c_j 4^e D_(j-2) from D_0 = 1, and the
    count is the number of sign changes in D_0 .. D_m with zeros dropped
    (Sturm): with every c_j > 0 no two zeros follow each other, and a zero
    D_j (j < m) has neighbours of opposite signs.  D_m = 0 says x is an
    eigenvalue.
    """
    b, shift = (d << e) - num, 2 * e  # the factor 4^e as a shift
    prev, cur = 1, b
    negative = b < 0  # whether the last nonzero minor is negative; D_0 = 1 if b = 0
    count = int(negative)
    for c in couplings:
        prev, cur = cur, b * cur - ((c * prev) << shift)
        if cur:
            sign = cur < 0
            if sign != negative:
                count += 1
                negative = sign
    return count, cur == 0


def exact_count_sqrt(couplings: Sequence[int], mu: int) -> tuple[int, bool]:
    """``exact_count`` at x = sqrt(mu), mu > 0, for the zero diagonal: in integers too.

    A zero-diagonal block with integer squared couplings is the Golub-Kahan
    form of a bidiagonal (Golub & Kahan, SIAM J. Numer. Anal. 1965), and its
    leading minors at sqrt(mu) are D_j = sqrt(mu)^(j mod 2) E_j with E_0 = 1,
    E_1 = -1, E_j = -mu E_(j-1) - c_(j-1) E_(j-2) for even j and
    E_j = -E_(j-1) - c_(j-1) E_(j-2) for odd j.  Each E_j has D_j's sign.
    """
    prev, cur, negative, count = 1, -1, True, 1
    for j, c in enumerate(couplings):
        prev, cur = cur, -(cur if j % 2 else mu * cur) - c * prev
        if cur:
            sign = cur < 0
            if sign != negative:
                count += 1
                negative = sign
    return count, cur == 0


def _pivot_floor(off_sq: Sequence[float] | np.ndarray) -> float:
    """The LAPACK pivot floor; the same bits from the list or from its float64 array."""
    if isinstance(off_sq, np.ndarray):
        return _SAFMIN * float(off_sq.max(initial=1.0))
    return _SAFMIN * max(1.0, max(off_sq, default=1.0))


def _gershgorin(off_sq: Sequence[float] | np.ndarray, d: float) -> tuple[float, float]:
    """d -+ the largest row spread, padded; rounding is monotone, so the extreme rows' bits.

    A float64 array of the couplings is used as it is; a list is converted first.
    """
    off = np.sqrt(np.asarray(off_sq, dtype=float))
    spread = np.append(off, 0.0)  # row i: off[i] + off[i - 1], one term at either end
    spread[1:] += off
    widest = float(spread.max())
    lo, hi = d - widest, d + widest
    pad = 1e-10 * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


# A guess that fails its check moves just inside the proven bound at most this often.
_RETRIES = 1


def _bisect(off_sq, d, k: int, lo: float, hi: float, tol: float, pivmin: float, guess: float | None):
    """Eigenvalue k and its radius: (lo, hi) bisected to ``tol`` keeping count(lo) <= k < count(hi).

    A ``guess`` strictly inside (lo, hi) is walked first, every decision
    taken from it (``mid > guess`` sets hi) with no sweep; then the walk's
    final lo and hi are counted, each unless already proven.  If both
    checks pass, each midpoint the walk set as lo is <= that lo and each
    one set as hi is >= that hi; the floating-point Sturm count is monotone
    in x (Demmel, Dhillon & Ren, ETNA 1995), so the counted bisection would
    decide each one the same way, and that bracket is the result.  A failed
    check is a proven bound: the guess moves just inside it and the walk is
    repeated, at most ``_RETRIES`` times; then the counted bisection runs
    from (lo, hi), sweeping only strictly between the proven bounds.  Any
    other guess, None and NaN included, is ignored.  The radius is the
    final half-width plus a few ulps of slop for the Sturm recurrence itself.
    """
    below, above = lo, hi  # the Gershgorin ends: count(lo) = 0 <= k < m = count(hi)
    tries = 1 + _RETRIES if guess is not None and lo < guess < hi else 0
    for _ in range(tries):
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
            if count_below(off_sq, d, a, pivmin=pivmin) > k:
                above, guess = a, math.nextafter(a, -math.inf)
                continue
            below = a
        if b < above:
            if count_below(off_sq, d, b, pivmin=pivmin) <= k:
                below = guess = b
                continue
            above = b
        lo, hi = a, b  # proven: the loop below has nothing left to split
        break
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # hit floating-point resolution
        if mid >= above or mid > below and count_below(off_sq, d, mid, pivmin=pivmin) > k:
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo) + 4.0 * math.ulp(max(1.0, abs(value)))
    return value, radius


def eigenvalue_k(
    off_sq: Sequence[float],
    d: float,
    k: int,
    tol: float = DEFAULT_TOL,
    guess: float | None = None,
    *,
    array: np.ndarray | None = None,
) -> tuple[float, float]:
    """k-th smallest eigenvalue (0-based) with a certified half-width, by bisection.

    A ``guess`` strictly inside the Gershgorin bracket is checked with two
    Sturm counts, and the bracket they prove is returned (``_bisect``), so
    the result is the same bits for any guess.  A guess within about ``tol``
    of the eigenvalue costs two sweeps in all, a worse one at most
    ``2 * (1 + _RETRIES)`` more than none.  Any other guess, NaN included,
    is ignored.

    ``array``, the same couplings as a float64 array, gives the bracket and
    the pivot floor their bits without a pass over the list; the sweeps
    still run over ``off_sq``.
    """
    check_tol(tol)
    m = len(off_sq) + 1
    if not 0 <= k < m:
        raise ValueError(f"eigenvalue index {k} out of range for dimension {m}")
    if m == 1:
        return float(d), 0.0
    couplings = off_sq if array is None else array
    lo, hi = _gershgorin(couplings, d)
    pivmin = _pivot_floor(couplings)
    return _bisect(off_sq, d, k, lo, hi, tol, pivmin, guess)


def eigenvalues_all(
    off_sq: Sequence[float],
    d: float,
    tol: float = DEFAULT_TOL,
    guesses: Sequence[float] | None = None,
) -> tuple[list[float], list[float]]:
    """All eigenvalues ascending with their half-widths: ``eigenvalue_k``'s, with fewer sweeps.

    The indices are bisected from the top down, each from the one
    Gershgorin bracket.  ``guesses[k]``, if given, is eigenvalue k's
    ``guess`` for ``eigenvalue_k``.  An index k of the lower half
    (k < m - 1 - k) with no guess of the caller's takes the mirror guess
    2 d - value[m - 1 - k]: diag(+-1) maps a tridiagonal with constant
    diagonal d onto its reflection about d, so eigenvalue k is
    2 d - eigenvalue m - 1 - k, and ``_bisect`` settles it in two
    or three sweeps instead of about 47.  A guess only chooses which
    counts are made: the bisection's decisions, and so every bit of the
    values and radii, are those of ``eigenvalue_k`` with no guess.
    """
    check_tol(tol)
    m = len(off_sq) + 1
    if guesses is None:
        guesses = [None] * m
    elif len(guesses) != m:
        raise ValueError(f"{len(guesses)} guesses for dimension {m}")
    if m == 1:
        return [float(d)], [0.0]
    lo, hi = _gershgorin(off_sq, d)
    pivmin = _pivot_floor(off_sq)
    values, radii = [0.0] * m, [0.0] * m
    for k in reversed(range(m)):
        guess = guesses[k]
        if guess is None and k < m - 1 - k:
            guess = 2.0 * d - values[m - 1 - k]
        values[k], radii[k] = _bisect(off_sq, d, k, lo, hi, tol, pivmin, guess)
    return values, radii


def dense(off_sq: Sequence[float], d: float) -> np.ndarray:
    """The matrix as a dense float array."""
    off = np.sqrt(np.asarray(off_sq, dtype=float))
    a = np.diag(off, 1) + np.diag(off, -1)
    np.fill_diagonal(a, d)
    return a


def eigenvector(off_sq: Sequence[float], d: float, lam: float) -> np.ndarray:
    """Unit eigenvector for a precomputed eigenvalue, by inverse iteration.

    Two iterations from e_1 with a slightly perturbed shift; e_1 is never
    orthogonal to the target since every eigenvector of an unreduced
    tridiagonal has a nonzero first coordinate.  Dense solves are fine at the tiny
    dimensions used here.
    """
    m = len(off_sq) + 1
    if m == 1:
        return np.ones(1)
    a = dense(off_sq, d)
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
