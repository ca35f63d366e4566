"""Exact Krawtchouk polynomials: construction, evaluation, certified roots.

The degree-k Krawtchouk polynomial over {0..N} is

    K_k(x) = sum_{l=0}^{k} (-1)^l C(x,l) C(N-x, k-l),

an integer-valued degree-k polynomial whose k! multiple has integer
coefficients; that scaled form is what gets stored and evaluated.  Its
roots are the eigenvalues of the Jacobi matrix J, whose double 2J is an
integer matrix, so exact Sturm counts of 2J (``tridiagonal.exact_count``)
place each root on a dyadic grid and prove its rank.  The search is seeded
from a floating-point eigensolve of J; the counts decide every step, so the
seed changes no bit of the result.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import tridiagonal
from .errors import InvalidDegreeError, check_tol
from .tridiagonal import DEFAULT_TOL

# Up to this ambient dimension first_root certifies the smallest root by
# exact counts (the rank-0 search of ``roots``); above it, the floating-point
# bisection of the Jacobi matrix.
EXACT_COEFF_LIMIT = 64


def binom_int(n: int, k: int) -> int:
    """C(n, k) for n >= 0 and any integer k (0 for k < 0 or k > n)."""
    return math.comb(n, k) if k >= 0 else 0


@dataclass(frozen=True)
class KrawtchoukPoly:
    """Degree-k Krawtchouk polynomial over {0..N}, stored exactly.

    ``coeffs`` are the integer coefficients of k! * K_k, lowest degree
    first; dividing by ``scale`` (= k!) recovers K_k.  The leading
    coefficient of K_k itself is (-2)^k / k!.
    """

    ambient_dim: int
    degree: int
    coeffs: tuple[int, ...]
    scale: int

    def eval_scaled(self, x: int) -> int:
        """Exact value of k! * K_k at an integer point."""
        return _horner(self.coeffs, x)


@dataclass(frozen=True)
class RootList:
    """Certified simple real roots (or eigenvalues), ascending.

    ``radius`` holds one certified interval half-width per root.
    """

    values: tuple[float, ...]
    radius: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.radius):
            raise ArithmeticError("internal-error: radius/value length mismatch")
        for i in range(len(self.values) - 1):
            gap = self.values[i + 1] - self.values[i]
            if gap <= self.radius[i] + self.radius[i + 1]:
                raise ArithmeticError(
                    "internal-error: certified root intervals overlap "
                    f"({self.values[i]!r}, {self.values[i + 1]!r})"
                )

    def __len__(self) -> int:
        return len(self.values)


def build(ambient_dim: int, degree: int) -> KrawtchoukPoly:
    """Construct the exact polynomial via the three-term recurrence.

    The scaled form Q_k = k! * K_k satisfies the integer recurrence
    Q_k = (N - 2x) Q_{k-1} - (k-1)(N-k+2) Q_{k-2} with Q_0 = 1, Q_1 = N - 2x.
    """
    n, k = ambient_dim, degree
    if n < 0 or k < 0 or k > n:
        raise InvalidDegreeError(f"need 0 <= k <= N, got k={k}, N={n}")
    prev = [1]
    if k == 0:
        return KrawtchoukPoly(n, 0, (1,), 1)
    cur = [n, -2]
    for j, f in enumerate(jacobi_couplings(n, 0, k - 1).tolist(), 2):
        # (N - 2x) * cur
        nxt = [0] * (j + 1)
        for i, c in enumerate(cur):
            nxt[i] += n * c
            nxt[i + 1] -= 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= f * c
        prev, cur = cur, nxt
    return KrawtchoukPoly(n, k, tuple(cur), math.factorial(k))


def eval_exact(p: KrawtchoukPoly, x: int) -> Fraction:
    """Exact value of K_k at an integer point (always an integer)."""
    return Fraction(p.eval_scaled(x), p.scale)


def _horner(coeffs: Sequence[int], x: int) -> int:
    """Exact value at an integer point of the polynomial with these coefficients, lowest first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _dyadic_midpoint(a: int, e: int) -> tuple[float, float]:
    """Midpoint and certified half-width of the dyadic interval (a/2^e, (a+1)/2^e)."""
    value = float(Fraction(2 * a + 1, 1 << (e + 1)))
    return value, 2.0 ** -(e + 1) + 2.0 * math.ulp(max(1.0, abs(value)))


def roots(
    ambient_dim: int, degree: int, tol: float = DEFAULT_TOL, count: int | None = None
) -> RootList:
    """The ``count`` smallest roots of K_k over {0..N} (all k by default), certified by exact counts.

    Each has half-width <= tol.  Root i is found on the grid of multiples of
    2^-e, for the first e >= 2 with 2^-e <= tol, by ``_root_of_rank``, seeded
    with the eigenvalue of the same rank from a floating-point eigensolve
    (``_root_guesses``).  The counts prove each root's rank whatever the
    guess, so the guess changes no bit of the result, only the number of
    counts; each rank is searched on its own, so neither does ``count``.
    """
    n, k = ambient_dim, degree
    if n < 0 or k < 0 or k > n:
        raise InvalidDegreeError(f"need 0 <= k <= N, got k={k}, N={n}")
    if k < 1:
        raise InvalidDegreeError("roots requires degree >= 1")
    check_tol(tol)
    tol = min(tol, 0.25)
    level = 2
    while 2.0 ** -level > tol:
        level += 1
    guesses = _root_guesses(n, k)[:count]  # checks 1 <= k <= N
    couplings = jacobi_couplings(n, 0, k - 1).tolist()
    values, radii = zip(*(_root_of_rank(couplings, n, i, level, g) for i, g in enumerate(guesses)))
    return RootList(values, radii)


def _root_of_rank(couplings: list[int], n: int, i: int, e: int, guess: float) -> tuple[float, float]:
    """Root i (0-based, ascending) of K_k over {0..N}, by exact counts on the level-e grid.

    The roots are the eigenvalues of the Jacobi matrix J, and 2J is the
    integer matrix with diagonal N and squared off-diagonals ``couplings``,
    so its exact count at 2x = a / 2^(e-1) gives the roots below x = a / 2^e
    and whether x is one.  The bracket (lo, hi) of grid points keeps at most
    i roots <= lo and more than i below hi.  It starts at (0, N), as the
    roots of an orthogonal polynomial lie inside the hull of the support of
    its measure.  A finite ``guess`` is tried first: the ends of its
    interval, then the far end of the neighbour they point to; then the
    bracket is bisected.  A grid point that is root i comes out exact, with
    half-width one ulp.  At hi = lo + 1 the interval is returned when its
    ends count i and i + 1 roots and neither is a root; while an end is
    another root, the grid is refined by halves.
    """
    lo, at_lo, hi, at_hi = 0, (0, False), n << e, (len(couplings) + 1, False)
    probes = []
    if math.isfinite(guess):
        num, den = guess.as_integer_ratio()
        a = min(max((num << e) // den, 0), hi - 1)
        probes = [a, a + 1, a + 2, a - 1]
    while True:
        while hi - lo > 1:
            x = next((x for x in probes if lo < x < hi), (lo + hi) // 2)
            at_x = tridiagonal.exact_count(couplings, n, x, e - 1)
            if at_x == (i, True):
                value = float(Fraction(x, 1 << e))
                return value, math.ulp(max(1.0, value))
            if at_x[0] > i:
                hi, at_hi = x, at_x
            else:
                lo, at_lo = x, at_x
        if at_lo == (i, False) and at_hi == (i + 1, False):
            return _dyadic_midpoint(lo, e)
        lo, hi, e, probes = 2 * lo, 2 * hi, e + 1, []


def _root_guesses(ambient_dim: int, degree: int) -> list[float]:
    """Eigenvalues of the Jacobi matrix of K_k, ascending, by a dense floating-point eigensolve.

    Uncertified: only guesses for ``_root_of_rank``.
    """
    return np.linalg.eigvalsh(tridiagonal.dense(*_jacobi_matrix(ambient_dim, degree))).tolist()


def jacobi_couplings(ambient_dim: int, first: int, last: int) -> np.ndarray:
    """4 times the squared off-diagonals of the Jacobi matrix over {0..N} between rows first..last.

    The integers (j-1)(N-j+2), j = first+2 .. last+1: int64 for N < 2^32,
    where they are < 2^62, and exact Python ints (an object array) past that.
    """
    n = ambient_dim
    j = np.arange(first + 2, last + 2, dtype=np.int64 if n < 2**32 else object)
    return (j - 1) * (n - j + 2)


def _jacobi_off_sq(ambient_dim: int, degree: int) -> np.ndarray:
    """Squared off-diagonals (j-1)(N-j+2)/4 of the k x k Jacobi matrix of K_k over {0..N}, float64."""
    n, k = ambient_dim, degree
    if k < 1 or k > n:
        raise InvalidDegreeError(f"need 1 <= k <= N, got k={k}, N={n}")
    # One correctly rounded int-to-float conversion, then an exact / 4; past int64 the
    # object array already holds Python floats, which float64 keeps as they are.
    return np.asarray(jacobi_couplings(n, 0, k - 1) / 4.0, dtype=float)


def _jacobi_matrix(ambient_dim: int, degree: int) -> tuple[list[float], float]:
    """Squared off-diagonals and constant diagonal of the k x k Jacobi matrix of K_k over {0..N}.

    The monic transform P_k = k!/(-2)^k K_k satisfies
    P_k = (x - N/2) P_{k-1} - (k-1)(N-k+2)/4 P_{k-2}, so the Jacobi matrix
    has constant diagonal N/2 and squared off-diagonals (j-1)(N-j+2)/4;
    its eigenvalues are exactly the roots of K_k.
    """
    return _jacobi_off_sq(ambient_dim, degree).tolist(), ambient_dim / 2.0


def first_root(ambient_dim: int, degree: int, tol: float = DEFAULT_TOL) -> float:
    """Minimal root of K_k over {0..N}.

    N = 0 with k = 1 returns 0.0 by convention (the degenerate reduced
    dimension, where the corresponding 1x1 coupling block is the zero
    matrix); any other k needs 1 <= k <= N.  Large N skips the exact
    counts and bisects the Jacobi matrix in floats, seeded for k >= 512 from
    the smallest eigenvalue of a window of it (``_window_guess``): the same
    bits, in 2 full sweeps instead of ~55 when the guess is right.  The
    couplings are built once, as a float64 array and its list: every matrix
    solved here takes its Gershgorin bracket and pivot floor from a slice
    of the array and its sweeps from the same slice of the list.
    """
    n, k = ambient_dim, degree
    if n == 0 and k == 1:
        check_tol(tol)
        return 0.0
    array = _jacobi_off_sq(n, k)  # checks 1 <= k <= N for both paths
    if n <= EXACT_COEFF_LIMIT:
        return roots(n, k, tol, 1).values[0]
    off_sq, d = array.tolist(), n / 2.0
    guess = _window_guess(n, k, off_sq, array, d, tol)
    return tridiagonal.eigenvalue_k(off_sq, d, 0, tol, guess, array=array)[0]


def _window_guess(n: int, k: int, off_sq: list[float], array: np.ndarray, d: float, tol: float):
    """A guess at the smallest eigenvalue from windows of rows around the off-diagonals' peak.

    None for k < 512.  The off-diagonals grow up to row N//2 + 1 and shrink
    past it, so the extreme eigenvector decays fast away from that peak:
    the windows end at row k when k <= N//2 + 1 and are centred on the peak
    (clipped to the k rows) past it.  By Cauchy interlacing a window gives
    an upper bound.  Windows of w = 64, 128, ... rows with 8w <= k are
    solved coarsely until two agree, then one of 4w rows by
    ``_window_root``, starting 4 coarse tolerances below the w-row value.
    If none agree, the widest window, 4w rows for the last w, starts 4
    times the gap between the last two coarse values below the last; at
    its Gershgorin bottom if that is higher, if only one window was solved,
    or if a Sturm count finds that start not below its smallest eigenvalue.
    Each coarse solve is seeded with the last coarse value (the first with
    inf, which costs no count); ``eigenvalue_k`` returns the same bits for
    any guess, so the seeds only save sweeps.  ``array`` is ``off_sq`` as a
    float64 array; each window is the same slice of both.
    """
    if k < 512:
        return None
    peak = n // 2 + 1

    def rows_of(w):
        end = min(k, peak + w // 2) if k > peak else k
        return slice(end - w, end - 1)

    coarse = max(tol, 1e-6 * n)
    w, prev, cur = 64, math.inf, math.inf
    while 8 * w <= k:
        rows = rows_of(w)
        prev, cur = cur, tridiagonal.eigenvalue_k(off_sq[rows], d, 0, coarse, cur, array=array[rows])[0]
        if abs(prev - cur) <= 2.0 * coarse:
            rows = rows_of(4 * w)
            return _window_root(off_sq[rows], array[rows], d, cur - 4.0 * coarse, tol)
        w *= 2
    rows = rows_of(4 * (w // 2))  # the widest window: 4w rows for the last w solved
    window, couplings = off_sq[rows], array[rows]
    gershgorin = d - 2.0 * math.sqrt(couplings.max())
    below = cur - 4.0 * (prev - cur)  # -inf after one window
    pivmin = tridiagonal._pivot_floor(couplings)
    if not (gershgorin < below and tridiagonal.count_below(window, d, below, pivmin=pivmin) == 0):
        below = gershgorin
    return _window_root(window, couplings, d, below, tol)


def _window_root(off_sq: list[float], array: np.ndarray, d: float, below: float, tol: float) -> float:
    """The last float below the smallest eigenvalue of a Jacobi window, in a few sweeps.

    Newton's method from ``below`` that eigenvalue lands within about one
    rounding unit of the pivots (``_unit``) of it, and a gallop finds the
    last float where the floating-point Sturm count is still 0: that float
    is the guess for the full matrix, whose certificate keeps the bits
    whatever the guess.  Only when the gallop gives up (a Newton landing
    that is not finite or is more than 2**_GALLOP units off) does
    ``eigenvalue_k`` bisect the window from the landing, so a bad landing
    costs window sweeps, not full-matrix ones.
    """
    x = _newton_from_below(off_sq, d, below)
    last = _last_float_below(off_sq, d, x, tridiagonal._pivot_floor(array))
    if last is not None:
        return last
    return tridiagonal.eigenvalue_k(off_sq, d, 0, tol, x, array=array)[0]


# Caps on the sweeps of _newton_from_below and on the step doublings of _last_float_below.
_NEWTON_STEPS = 64
_GALLOP = 16


def _unit(d: float, x: float) -> float:
    """Rounding unit of the pivots d - x - e2 / q near x: how closely a sweep places a root."""
    return math.ulp(abs(d) + abs(x))


def _newton_from_below(off_sq: list[float], d: float, x: float) -> float:
    """Newton's method on det(T - x) for a constant diagonal, from x below the smallest eigenvalue.

    The polynomial has only real roots, so from below the smallest one each
    step climbs towards it without passing it (Li & Zeng, SIAM J. Sci.
    Comput. 1994).  Stops at a pivot <= 0, where x is at or past the root;
    or after a step no larger than ``_unit``, or one after which quadratic
    convergence puts the next step, step**3 / previous**2, below it.
    """
    prev = 0.0
    for _ in range(_NEWTON_STEPS):
        s = _log_det_slope(off_sq, d, x)
        if s is None:
            return x
        step = -1.0 / s
        x += step
        unit = _unit(d, x)
        if step <= unit or step * step * step <= unit * prev * prev:
            return x
        prev = step
    return x


def _log_det_slope(off_sq: list[float], d: float, x: float) -> float | None:
    """d/dx log det(T - x) for a constant diagonal, or None at a pivot <= 0.

    det(T - x) is the product of the LDL^T pivots q_i = d - x - e2_i / q_{i-1}
    of ``tridiagonal.count_below``, and the same loop sums
    q_i' / q_i = (e2_i / q_{i-1} * q_{i-1}' / q_{i-1} - 1) / q_i.
    """
    a, q, t, s = d - x, math.inf, 0.0, 0.0
    for e2 in chain((0.0,), off_sq):
        r = e2 / q
        q = a - r
        if q <= 0.0:
            return None
        t = (r * t - 1.0) / q
        s += t
    return s


def _last_float_below(off_sq: list[float], d: float, x: float, pivmin: float) -> float | None:
    """The largest float at which ``count_below`` finds no eigenvalue, by a gallop from x.

    Counts at x -+ 1, 2, 4, ... times ``_unit`` until the count switches
    between 0 and >= 1, then halves that gap down to two adjacent floats.
    None if x is not finite or the switch is more than 2**_GALLOP units
    away.  ``pivmin`` is the matrix's pivot floor.
    """
    if not math.isfinite(x):
        return None

    def below(y):
        return tridiagonal.count_below(off_sq, d, y, pivmin=pivmin) == 0

    up = below(x)
    near, step = x, _unit(d, x)
    for _ in range(_GALLOP):
        far = x + step if up else x - step
        if below(far) != up:
            break
        near, step = far, 2.0 * step
    else:
        return None
    lo, hi = (near, far) if up else (far, near)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if below(mid):
            lo = mid
        else:
            hi = mid
