"""Closed-form spectra of weight-band induced subgraphs.

Every eigenvalue of the band adjacency arises from a zero-diagonal
symmetric tridiagonal block indexed by an origin weight t; the block for
t has squared off-diagonals (k-1)(n-2t-k+2) and contributes each of its
simple eigenvalues with multiplicity C(n,t) - C(n,t-1).  For a full ball
(r1 = 0) the block spectrum is also the affine image 2*roots - (n-2t) of
a Krawtchouk root set, and both routes are computed and cross-checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import krawtchouk, tridiagonal
from .errors import check_band, check_tol
from .hamming import DEFAULT_DENSE_LIMIT, InducedGraph, build_graph, oracle_spectra
from .krawtchouk import RootList, TRIDIAGONAL_EIGENSOLVE, binom_int, first_root

MERGE_EPS_SCALE = 1e-9
VERIFY_TOL = 1e-8
AMBIGUOUS_ZONE_FACTOR = 1000.0


class AmbiguousMergeWarning(UserWarning):
    """A cross-origin eigenvalue gap fell just above the merge threshold."""


def origin_multiplicity(n: int, t: int) -> int:
    """Eigenspace dimension contributed by origin weight t: C(n,t) - C(n,t-1)."""
    return binom_int(n, t) - binom_int(n, t - 1)


@dataclass(frozen=True)
class TridiagonalSym:
    """Zero-diagonal symmetric tridiagonal block for origin weight t.

    The squared off-diagonal entries are the exact integers
    (k-1)(n-2t-k+2) for k = t*-t+2 .. r2-t+1 where t* = max(t, r1); all are
    strictly positive, so the dim = r2-t*+1 eigenvalues are simple.

    Row k stands for sphere i = t*+k.  On the functions constant on the
    classes around a weight-t mask the adjacency acts as the tridiagonal R
    with R[k, k+1] = n-i and R[k+1, k] = offdiag_sq[k] / (n-i); ``scaling``
    gives the D for which D^-1 R D is this block.
    """

    n: int
    r1: int
    r2: int
    t: int
    tstar: int
    dim: int
    offdiag_sq: tuple[int, ...]

    def eigenvalues(self) -> RootList:
        """Certified eigenvalues, symmetrized about 0.

        A zero-diagonal tridiagonal spectrum is exactly symmetric under
        negation, so paired estimates are averaged and an odd dimension
        pins the middle eigenvalue to exactly 0.0.
        """
        values, radii = tridiagonal.eigenvalues_all([float(v) for v in self.offdiag_sq], 0.0)
        m = self.dim
        sym_vals = [0.5 * (values[i] - values[m - 1 - i]) for i in range(m)]
        sym_radii = [max(radii[i], radii[m - 1 - i]) for i in range(m)]
        if m % 2 == 1:
            sym_vals[m // 2] = 0.0
        return RootList(tuple(sym_vals), tuple(sym_radii), TRIDIAGONAL_EIGENSOLVE)

    def scaling(self) -> np.ndarray:
        """Diagonal D of the restricted adjacency R, first entry 1, with D^-1 R D this block."""
        d = [1.0]
        for i, e2 in enumerate(self.offdiag_sq, self.tstar):
            d.append(d[-1] * math.sqrt(float(Fraction(e2, self.n - i)) / float(self.n - i)))
        return np.array(d)


def coupling_matrix(n: int, r1: int, r2: int, t: int) -> TridiagonalSym:
    check_band(n, r1, r2, t)
    tstar = max(t, r1)
    dim = r2 - tstar + 1
    # rows tstar-t .. r2-t of the Jacobi matrix over n - 2t, times 4
    off_sq = tuple(krawtchouk.jacobi_couplings(n - 2 * t, tstar - t, r2 - t).tolist())
    if len(off_sq) != dim - 1 or any(v <= 0 for v in off_sq):
        raise ArithmeticError(f"internal-error: bad coupling entries {off_sq}")
    return TridiagonalSym(n, r1, r2, t, tstar, dim, off_sq)


def lambda_set(n: int, r1: int, r2: int, t: int) -> RootList:
    """Eigenvalues contributed by origin weight t, ascending and certified.

    For r1 = 0 the same set must equal 2*R - (n-2t) where R are the roots of
    the degree r2-t+1 Krawtchouk polynomial over {0..n-2t}; for
    1 <= n-2t <= EXACT_COEFF_LIMIT the two routes are cross-checked here, the
    roots certified by exact counts: each eigenvalue's certified interval
    must meet the affine image of its root's.
    """
    block = coupling_matrix(n, r1, r2, t)
    out = block.eigenvalues()
    reduced = n - 2 * t
    if r1 == 0 and 1 <= reduced <= krawtchouk.EXACT_COEFF_LIMIT:
        kr = krawtchouk._roots(reduced, r2 - t + 1)
        for v, rad, x, xrad in zip(out.values, out.radius, kr.values, kr.radius):
            affine = 2.0 * x - reduced
            if abs(v - affine) > rad + 2.0 * xrad:
                raise ArithmeticError(
                    f"internal-error: eigensolve/root paths disagree at t={t}: "
                    f"{v!r} vs {affine!r}"
                )
    return out


@dataclass(frozen=True)
class SpectrumLine:
    value: float
    multiplicity: int
    contributors: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumTable:
    n: int
    r1: int
    r2: int
    total_dim: int
    lines: tuple[SpectrumLine, ...]

    def expanded(self) -> np.ndarray:
        """The full eigenvalue multiset, ascending."""
        return np.repeat(
            [line.value for line in self.lines],
            [line.multiplicity for line in self.lines],
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r1": self.r1,
            "r2": self.r2,
            "total_dim": self.total_dim,
            "lines": [
                {
                    "value": line.value,
                    "multiplicity": line.multiplicity,
                    "t": list(line.contributors),
                }
                for line in self.lines
            ],
        }

    def csv_lines(self) -> list[str]:
        out = ["value,multiplicity,t"]
        for line in self.lines:
            ts = ";".join(str(t) for t in line.contributors)
            out.append(f"{line.value!r},{line.multiplicity},{ts}")
        return out


def full_spectrum(
    n: int,
    r1: int,
    r2: int,
    merge_eps: float | None = None,
) -> SpectrumTable:
    """Assemble the complete spectrum with multiplicities and contributors.

    Eigenvalue 0 is recognized exactly (odd block dimension) and merged
    symbolically; other coincidences across origins are merged when closer
    than merge_eps (default ``MERGE_EPS_SCALE * (n + 1)``; a given one must be
    finite and positive), with a warning for gaps in the ambiguous zone just
    above the threshold.
    """
    return _table(n, r1, r2, merge_eps, {})


def _table(n: int, r1: int, r2: int, merge_eps: float | None, blocks: dict) -> SpectrumTable:
    """``full_spectrum``, sharing solved blocks through ``blocks``: origin t's block and its
    Krawtchouk cross-check depend only on their key (n - 2t, max(t, r1) - t, r2 - t, r1 == 0)."""
    check_band(n, r1, r2)
    if merge_eps is None:
        merge_eps = MERGE_EPS_SCALE * (n + 1)
    else:
        check_tol(merge_eps)

    zero_contributors: list[int] = []
    zero_mult = 0
    nonzero: list[tuple[float, int]] = []  # (value, t)
    for t in range(r2 + 1):
        weight = origin_multiplicity(n, t)
        key = (n - 2 * t, max(t, r1) - t, r2 - t, r1 == 0)
        if key not in blocks:
            blocks[key] = lambda_set(n, r1, r2, t)
        for v in blocks[key].values:
            if v == 0.0:
                zero_contributors.append(t)
                zero_mult += weight
            else:
                nonzero.append((v, t))

    nonzero.sort()
    for (v1, t1), (v2, t2) in zip(nonzero, nonzero[1:]):
        gap = v2 - v1
        if t1 != t2 and merge_eps <= gap < AMBIGUOUS_ZONE_FACTOR * merge_eps:
            warnings.warn(
                f"eigenvalue gap {gap:.3e} between origins {t1} and {t2} lies in "
                f"the ambiguous merge zone for band ({n},{r1},{r2})",
                AmbiguousMergeWarning,
                stacklevel=3,
            )

    lines: list[SpectrumLine] = []
    i = 0
    while i < len(nonzero):
        j = i + 1
        while j < len(nonzero) and nonzero[j][0] - nonzero[j - 1][0] < merge_eps:
            j += 1
        cluster = nonzero[i:j]
        ts = [t for _, t in cluster]
        if len(set(ts)) != len(ts):
            raise ArithmeticError(
                "internal-error: merge threshold swallowed two eigenvalues "
                f"of the same origin in band ({n},{r1},{r2})"
            )
        value = sum(v for v, _ in cluster) / len(cluster)
        mult = sum(origin_multiplicity(n, t) for t in ts)
        lines.append(SpectrumLine(value, mult, tuple(sorted(ts))))
        i = j
    if zero_contributors:
        lines.append(SpectrumLine(0.0, zero_mult, tuple(sorted(zero_contributors))))
    lines.sort(key=lambda line: line.value)

    if any(a.value >= b.value for a, b in zip(lines, lines[1:])):
        raise ArithmeticError("internal-error: merged lines are not strictly increasing")
    total_dim = sum(binom_int(n, i) for i in range(r1, r2 + 1))
    if sum(line.multiplicity for line in lines) != total_dim:
        raise ArithmeticError(
            f"internal-error: multiplicities sum to "
            f"{sum(line.multiplicity for line in lines)}, dimension is {total_dim}"
        )
    return SpectrumTable(n, r1, r2, total_dim, tuple(lines))


def max_eigenvalue(n: int, r: int) -> float:
    """Largest adjacency eigenvalue of the radius-r ball: n - 2 * first root."""
    check_band(n, 0, r)
    return n - 2.0 * first_root(n, r + 1)


@dataclass(frozen=True)
class VerifyReport:
    n: int
    r1: int
    r2: int
    tol: float
    vertex_count: int
    max_deviation: float
    multiplicities_ok: bool
    passed: bool
    oracle_residual: float
    oracle_tolerance: float

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"n={self.n} r1={self.r1} r2={self.r2} vertices={self.vertex_count} "
            f"max_deviation={self.max_deviation:.3e} "
            f"multiplicities={'ok' if self.multiplicities_ok else 'MISMATCH'} {status}"
        )


def verify_against_oracle(
    n: int,
    r1: int,
    r2: int,
    tol: float = VERIFY_TOL,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> VerifyReport:
    """Compare the closed-form table with the brute-force eigendecomposition: one band's sweep."""
    return verify_bands([(n, r1, r2)], tol, dense_limit)[0]


def verify_bands(
    cases: list[tuple[int, int, int]],
    tol: float = VERIFY_TOL,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> list[VerifyReport]:
    """One report per band ``(n, r1, r2)`` of ``cases``, in their order.

    Predicted and oracle eigenvalues are paired in ascending order, and a band
    passes when every pair is within ``tol``.  Consecutive bands form a batch
    while its vertex count stays within ``dense_limit``; each batch takes one
    ``oracle_spectra`` call, and the tables of the sweep share their block solves.
    A batch builds one graph per run of its bands (``_graphs``).
    """
    check_tol(tol)
    blocks: dict = {}
    batches: list[list[SpectrumTable]] = []
    for n, r1, r2 in cases:
        table = _table(n, r1, r2, None, blocks)
        if not batches or sum(t.total_dim for t in batches[-1]) + table.total_dim > dense_limit:
            batches.append([])
        batches[-1].append(table)
    reports = []
    for batch in batches:
        graphs = _graphs(batch, dense_limit)
        for t, oracle in zip(batch, oracle_spectra(graphs, dense_limit=dense_limit)):
            w, predicted = oracle.eigenvalues, t.expanded()
            gaps = np.abs(w - predicted) if len(w) == len(predicted) else np.full(1, math.inf)
            ok = bool(np.all(gaps <= tol))
            reports.append(VerifyReport(t.n, t.r1, t.r2, tol, len(w), float(gaps.max()), ok, ok,
                                        oracle.residual_bound, oracle.tolerance))
        del graphs  # before the next batch's are built
    return reports


def _graphs(batch: list[SpectrumTable], dense_limit: int) -> list[InducedGraph]:
    """The graph of each band of the batch, from one ``build_graph`` per run of bands.

    A run is consecutive bands of one n, and its graph is their hull, from
    the least r1 to the greatest r2; each band's graph is
    ``InducedGraph.band`` of it.  A run ends before a band that would take
    its hull past ``dense_limit`` vertices, so a band that fits on its own is
    its own hull at worst.
    """
    runs: list[tuple[int, int, int, list[SpectrumTable]]] = []  # (n, lo, hi, tables)
    for t in batch:
        if runs and runs[-1][0] == t.n:
            n, lo, hi, run = runs[-1]
            lo, hi = min(lo, t.r1), max(hi, t.r2)
            if sum(binom_int(n, i) for i in range(lo, hi + 1)) <= dense_limit:
                runs[-1] = (n, lo, hi, run + [t])
                continue
        runs.append((t.n, t.r1, t.r2, [t]))
    graphs = []
    for n, lo, hi, run in runs:
        hull = build_graph(n, lo, hi, max_vertices=dense_limit)
        graphs += [hull.band(t.r1, t.r2) for t in run]
    return graphs
