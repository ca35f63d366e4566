"""The paper's lemmas as executable checks, for the tests.

No command reaches these; each states a result of the paper (eigenspace
membership and zonal uniqueness on a sphere, Krawtchouk reciprocity and its
boundary bound, the Dirichlet quotient of a band function) as code that the
tests run against the library, or counts exactly what the library
computes in floating point (``exact_count_below``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ballspec.errors import BudgetExceededError, InvalidDegreeError, InvalidParameterError
from ballspec.hamming import InducedGraph, weight_masks
from ballspec.krawtchouk import first_root

MEMBERSHIP_ORTH_RTOL = 1e-10
MEMBERSHIP_SPAN_RTOL = 1e-8
UNIQUENESS_SPHERE_LIMIT = 5000


class ZeroFunctionError(ValueError):
    """An operation received an identically-zero function."""


def _check_sphere(n: int, i: int, t: int) -> None:
    if not 0 <= t <= i <= n // 2:
        raise InvalidParameterError(f"need 0 <= t <= i <= n//2, got t={t}, i={i}, n={n}")


def _superset_columns(n: int, sphere_masks: list[int], max_weight: int) -> np.ndarray:
    """Matrix whose columns are superset indicators for all masks of weight <= max_weight."""
    cols = []
    for w in range(max_weight + 1):
        for z in weight_masks(n, w):
            cols.append([1.0 if (x & z) == z else 0.0 for x in sphere_masks])
    return np.array(cols).T if cols else np.zeros((len(sphere_masks), 0))


def check_eigenspace_membership(n: int, i: int, t: int, values) -> bool:
    """Does a function on the weight-i sphere lie in eigenspace index t?

    Operationalized as: (a) orthogonal (counting measure) to every superset
    indicator of weight < t, and (b) inside the span of superset indicators
    of weight <= t, by least-squares residual.
    """
    _check_sphere(n, i, t)
    sphere = list(weight_masks(n, i))
    f = np.asarray(values, dtype=float)
    if f.shape != (len(sphere),):
        raise InvalidParameterError(
            f"function has shape {f.shape}, sphere has {len(sphere)} points"
        )
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        return True
    if t > 0:
        low = _superset_columns(n, sphere, t - 1)
        if float(np.abs(low.T @ f).max()) > MEMBERSHIP_ORTH_RTOL * norm:
            return False
    span = _superset_columns(n, sphere, t)
    coef, *_ = np.linalg.lstsq(span, f, rcond=None)
    residual = float(np.linalg.norm(span @ coef - f))
    return residual <= MEMBERSHIP_SPAN_RTOL * norm


@dataclass(frozen=True)
class ZonalUniquenessReport:
    n: int
    i: int
    t: int
    semi_dim: int
    constraint_rank: int
    dimension: int


def check_zonal_uniqueness(n: int, i: int, t: int) -> ZonalUniquenessReport:
    """Dimension of {semi-symmetric around a weight-t mask} cap {eigenspace t}.

    Computed by explicit linear algebra on the weight-i sphere: the class
    indicators span the semi-symmetric functions; membership constraints cut
    them down.  The result must be 1.
    """
    _check_sphere(n, i, t)
    if math.comb(n, i) > UNIQUENESS_SPHERE_LIMIT:
        raise BudgetExceededError(f"sphere has {math.comb(n, i)} points, budget {UNIQUENESS_SPHERE_LIMIT}")
    y = (1 << t) - 1
    sphere = list(weight_masks(n, i))
    classes = np.array(
        [[1.0 if (x & y).bit_count() == c else 0.0 for c in range(t + 1)] for x in sphere]
    )
    low = _superset_columns(n, sphere, t - 1) if t > 0 else np.zeros((len(sphere), 0))
    constraints = low.T @ classes
    if constraints.shape[0] == 0:
        null_basis = np.eye(t + 1)
        rank = 0
    else:
        u, s, vt = np.linalg.svd(constraints)
        cutoff = max(constraints.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
        rank = int((s > cutoff).sum())
        null_basis = vt[rank:].T
    span = _superset_columns(n, sphere, t)
    dimension = 0
    for col in null_basis.T:
        f = classes @ col
        norm = float(np.linalg.norm(f))
        if norm == 0.0:
            continue
        coef, *_ = np.linalg.lstsq(span, f, rcond=None)
        if float(np.linalg.norm(span @ coef - f)) <= MEMBERSHIP_SPAN_RTOL * norm:
            dimension += 1
    return ZonalUniquenessReport(n, i, t, t + 1, rank, dimension)


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (0 for k < 0)."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    # falling factorial keeps this exact for negative n
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def defining_sum(ambient_dim: int, degree: int, x: int) -> int:
    """Evaluate the defining alternating binomial sum at an integer point."""
    return sum(
        (-1) ** l * binom_int(x, l) * binom_int(ambient_dim - x, degree - l)
        for l in range(degree + 1)
    )


def check_reciprocity(n: int, i: int, j: int) -> bool:
    """C(n,j) K_i(j) == C(n,i) K_j(i), tested exactly in big integers."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise InvalidDegreeError(f"need 0 <= i, j <= n, got i={i}, j={j}, n={n}")
    return math.comb(n, j) * defining_sum(n, i, j) == math.comb(n, i) * defining_sum(n, j, i)


def exact_count_below(n: int, k: int, x: float) -> int:
    """Eigenvalues below the float x of the k-row Krawtchouk Jacobi matrix over {0..n}, in integers.

    The matrix has diagonal n/2 and squared couplings c_j / 4 with
    c_j = (j-1)(n-j+2).  With x = num/den, the leading minors
    D_j = (4 den)^j det(T_j - x) obey D_j = b D_(j-1) - 4 c_j den^2 D_(j-2),
    b = 2 n den - 4 num, from D_0 = 1 and D_1 = b.  The count is the number
    of sign changes in D_0 .. D_k (Sturm).  A zero minor, where x is an
    eigenvalue of a leading block, raises ArithmeticError.
    """
    num, den = x.as_integer_ratio()
    b, scale = 2 * n * den - 4 * num, 4 * den * den
    prev, cur = 1, b
    changes = int(cur < 0)
    for j in range(2, k + 1):
        if cur == 0:
            break
        prev, cur = cur, b * cur - scale * (j - 1) * (n - j + 2) * prev
        changes += (cur < 0) != (prev < 0)
    if cur == 0:
        raise ArithmeticError(f"a leading minor of the ({n}, {k}) Jacobi matrix vanishes at {x!r}")
    return changes


def subcube_reference(n: int, k: int) -> tuple[float, float]:
    """(fractional boundary, max eigenvalue) of a k-dimensional subcube: (n-k, k)."""
    if not 0 <= k <= n:
        raise InvalidParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    return float(n - k), float(k)


def reciprocity_delta_bound(n: int, t: int) -> int:
    """Smallest degree i whose first root is <= t+1; then 2i bounds the boundary.

    Uses strict monotone decrease of the first root in the degree for a
    binary search; afterwards asserts the reciprocity consequence
    first_root(n, t+1) <= i.
    """
    if not 0 <= t < n / 2:
        raise InvalidParameterError(f"need 0 <= t < n/2, got t={t}, n={n}")
    target = t + 1.0
    slack = 1e-9 * max(1.0, n)
    lo, hi = 1, n  # first_root(n, n) < 1 <= target, so hi always qualifies
    if first_root(n, 1) <= target + slack:
        hi = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if first_root(n, mid) <= target + slack:
            hi = mid
        else:
            lo = mid + 1
    i = hi
    if first_root(n, t + 1) > i + slack:
        raise ArithmeticError(
            f"internal-error: reciprocity consequence failed for n={n}, t={t}, i={i}"
        )
    return i


def rayleigh_fractional_boundary(g: InducedGraph, f: Iterable[float]) -> float:
    """Dirichlet quotient n - (f^T A f)/(f^T f) for f supported on the band.

    Extension of f by zero to the rest of the cube is implicit; minimizing
    over f gives the fractional edge boundary of the band, n - lambda_max.
    """
    arr = np.asarray(list(f) if not isinstance(f, np.ndarray) else f, dtype=float)
    if arr.shape != (g.vertex_count,):
        raise InvalidParameterError(
            f"function has {arr.shape} values, graph has {g.vertex_count} vertices"
        )
    den = float(arr @ arr)
    if den == 0.0:
        raise ZeroFunctionError("function is identically zero")
    num = float(arr @ g.apply_adjacency(arr))
    return g.n - num / den
