"""Semi-symmetric bases and explicit eigenfunctions.

Fix an origin mask y of weight t.  On each sphere of weight i >= max(t, r1)
there is a unique function, constant on the intersection classes
{x : |x & y| = c}, that equals 1 on supersets of y and is orthogonal to
every superset-indicator of a proper sub-mask of y.  These per-sphere
functions span an adjacency-invariant subspace on which the adjacency acts
as a small tridiagonal matrix; a diagonal scaling turns it into the
symmetric coupling block of the same origin (``spectrum.TridiagonalSym``),
so its eigenvalues are exactly that block's.  Pulling each eigenvector of
the block back gives an explicit eigenfunction of the band graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tridiagonal
from .errors import InvalidParameterError, check_band
from .hamming import _popcount, build_graph
from .krawtchouk import binom_int
from .spectrum import coupling_matrix, lambda_set


def _check_origin_mask(n: int, t: int, y: int) -> None:
    if y < 0 or y >> n:
        raise InvalidParameterError(f"origin mask {y:#x} does not fit in {n} bits")
    if y.bit_count() != t:
        raise InvalidParameterError(f"origin mask has weight {y.bit_count()}, expected {t}")


@dataclass(frozen=True)
class SemiSymBasis:
    """Per-sphere value tables of the normalized basis around origin y.

    values[(i, c)] is the exact rational value on the class
    {x in S(n,i) : |x & y| = c}, for spheres i = tstar..r2 and c = 0..t.
    """

    n: int
    r1: int
    r2: int
    t: int
    y: int
    tstar: int
    values: dict[tuple[int, int], Fraction]

    def value(self, i: int, c: int) -> Fraction:
        return self.values[(i, c)]


def class_size(n: int, t: int, i: int, c: int) -> int:
    """|{x in S(n,i) : |x & y| = c}| for any fixed y of weight t."""
    return binom_int(t, c) * binom_int(n - t, i - c)


def build_basis(n: int, r1: int, r2: int, t: int, y: int) -> SemiSymBasis:
    """The per-sphere class values in exact rationals, in closed form.

    The value at c = t is pinned to 1; the others solve the triangular
    system <f, G_k> = 0, k = t-1 .. 0, where G_k weights class c by C(c, k)
    under the counting measure, and are
    f(i, c) = (-1)^(t-c) prod_{j<t-c} (i-c-j)/(n-i-j).  They are built from
    c = t down, f(i, c-1) = -f(i, c) (i-c+1)/(n-i-t+c), with no step past
    c = 0: its divisor n-i-t is 0 on the single sphere i = t = n/2.
    """
    check_band(n, r1, r2, t)
    _check_origin_mask(n, t, y)
    tstar = max(t, r1)
    values: dict[tuple[int, int], Fraction] = {}
    for i in range(tstar, r2 + 1):
        f = values[(i, t)] = Fraction(1)
        for c in range(t, 0, -1):
            f = values[(i, c - 1)] = -f * Fraction(i - c + 1, n - i - t + c)
    return SemiSymBasis(n, r1, r2, t, y, tstar, values)


@dataclass(frozen=True)
class EigenFunction:
    """Explicit eigenfunction of the band adjacency from one origin mask."""

    n: int
    r1: int
    r2: int
    t: int
    y: int
    tstar: int
    eigenvalue: float
    coeffs: tuple[float, ...]
    values: np.ndarray
    class_values: dict[tuple[int, int], float]
    residual: float

    def to_dict(self) -> dict:
        spheres = []
        for i in range(self.tstar, self.r2 + 1):
            spheres.append(
                {
                    "i": i,
                    "classes": [
                        {"c": c, "value": self.class_values[(i, c)]}
                        for c in range(self.t + 1)
                    ],
                }
            )
        return {
            "lambda": self.eigenvalue,
            "t": self.t,
            "y": format(self.y, f"0{max(self.n, 1)}b"),
            "spheres": spheres,
        }


def synthesize(
    n: int,
    r1: int,
    r2: int,
    t: int,
    y: int,
    which: int,
) -> EigenFunction:
    """Materialize the eigenfunction for the which-th eigenvalue of origin (t, y).

    The eigenvector is extracted on the symmetric coupling block (Sturm
    bisection for the value, inverse iteration for the vector), unscaled
    back to the basis coordinates, and normalized to first coefficient 1.
    Values off the supporting spheres are exact zeros.
    """
    basis = build_basis(n, r1, r2, t, y)
    block = coupling_matrix(n, r1, r2, t)
    if not 0 <= which < block.dim:
        raise InvalidParameterError(
            f"eigenvalue index {which} out of range [0, {block.dim})"
        )
    lam = lambda_set(n, r1, r2, t, block).values[which]
    v = block.scaling() * tridiagonal.eigenvector(block.offdiag_sq, 0.0, lam)
    if v[0] == 0.0:
        raise ArithmeticError("internal-error: vanishing first coefficient")
    v = v / v[0]

    graph = build_graph(n, r1, r2)

    tstar = basis.tstar
    class_values = {
        (i, c): float(v[i - tstar]) * float(basis.value(i, c))
        for i in range(tstar, r2 + 1)
        for c in range(t + 1)
    }
    table = np.zeros((r2 + 1, t + 1))  # rows below tstar stay 0
    for (i, c), value in class_values.items():
        table[i, c] = value
    values = table[_popcount(graph.masks), _popcount(graph.masks & np.uint64(y))]

    sup = float(np.abs(values).max())
    residual = float(np.abs(graph.apply_adjacency(values) - lam * values).max()) / sup
    if residual > 1e-8:
        raise ArithmeticError(
            f"internal-error: synthesized residual {residual:.3e} exceeds 1e-8"
        )
    return EigenFunction(
        n, r1, r2, t, y, tstar, lam, tuple(float(c) for c in v),
        values, class_values, residual,
    )
