"""Closed-form spectra of weight-band induced subgraphs.

Every eigenvalue of the band adjacency arises from a zero-diagonal
symmetric tridiagonal block indexed by an origin weight t; the block for
t has squared off-diagonals (k-1)(n-2t-k+2) and contributes each of its
simple eigenvalues with multiplicity C(n,t) - C(n,t-1).  For t >= r1 (every
t of a full ball, r1 = 0) the block is that of the ball of radius r2, and
its spectrum is also the affine image 2*roots - (n-2t) of a Krawtchouk root
set; both routes are computed and cross-checked.
Values of different origins share a line of the table only when exact
integer counts prove them equal, and lines whose certified intervals meet
are ordered by exact counts too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial
from math import inf, nextafter
from operator import add, itemgetter, sub
from typing import NamedTuple

import numpy as np

from . import hamming, krawtchouk, tridiagonal
from .errors import BudgetExceededError, check_band, check_tol
from .hamming import band_vertices, build_graphs, check_budget, oracle_spectra
from .krawtchouk import RootList, binom_int, first_root

VERIFY_TOL = 1e-8


class AmbiguousMergeWarning(UserWarning):
    """Never raised: lines merge only when proven equal.  ``bench/run.py`` still counts it."""


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

    def eigenvalues(self, guesses: list[float] | None = None) -> RootList:
        """Certified eigenvalues, symmetrized about 0.

        A zero-diagonal tridiagonal spectrum is exactly symmetric under
        negation, so paired estimates are averaged and an odd dimension
        pins the middle eigenvalue to exactly 0.0.  ``guesses``, one per
        eigenvalue ascending, seed the solves and change no bit.
        """
        values, radii = tridiagonal.eigenvalues_all(
            [float(v) for v in self.offdiag_sq], 0.0, guesses=guesses
        )
        m = self.dim
        sym_vals = [0.5 * (values[i] - values[m - 1 - i]) for i in range(m)]
        sym_radii = [max(radii[i], radii[m - 1 - i]) for i in range(m)]
        if m % 2 == 1:
            sym_vals[m // 2] = 0.0
        return RootList(tuple(sym_vals), tuple(sym_radii))

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


def lambda_set(n: int, r1: int, r2: int, t: int, block: TridiagonalSym | None = None) -> RootList:
    """Eigenvalues contributed by origin weight t, ascending and certified.

    For t >= r1 the block is rows 0..r2-t of the Jacobi matrix over n-2t, the
    ball's block, so the same set must equal 2*R - (n-2t) where R are the
    roots of the degree r2-t+1 Krawtchouk polynomial over {0..n-2t}; for
    1 <= n-2t <= EXACT_COEFF_LIMIT the two routes are cross-checked here, the
    roots certified by exact counts: each eigenvalue's certified interval
    must meet the affine image of its root's.  The roots are found first,
    and their images seed the block's bisections; a seed changes no bit,
    so the check still compares two independent results.  ``block``, if
    given, is ``coupling_matrix(n, r1, r2, t)``, already built by the caller.
    """
    if block is None:
        block = coupling_matrix(n, r1, r2, t)
    reduced = n - 2 * t
    if not (t >= r1 and 1 <= reduced <= krawtchouk.EXACT_COEFF_LIMIT):
        return block.eigenvalues()
    kr = krawtchouk.roots(reduced, r2 - t + 1)
    out = block.eigenvalues([2.0 * x - reduced for x in kr.values])
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

    def to_dict(self) -> dict:
        return {"value": self.value, "multiplicity": self.multiplicity, "t": list(self.contributors)}


@dataclass(frozen=True)
class SpectrumTable:
    n: int
    r1: int
    r2: int
    total_dim: int
    lines: tuple[SpectrumLine, ...]

    def expanded(self) -> np.ndarray:
        """The full eigenvalue multiset, ascending (the floats of lines whose intervals meet may not be)."""
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
            "lines": [line.to_dict() for line in self.lines],
        }

    def csv_lines(self) -> list[str]:
        out = ["value,multiplicity,t"]
        for line in self.lines:
            ts = ";".join(str(t) for t in line.contributors)
            out.append(f"{line.value!r},{line.multiplicity},{ts}")
        return out


def full_spectrum(n: int, r1: int, r2: int) -> SpectrumTable:
    """Assemble the complete spectrum with multiplicities and contributors.

    Values of different origins share a line only when each is proven to be
    the same sign * sqrt(mu), mu an integer (``_sqrt_key``); 0 is one.  Lines
    are sorted by value, and those whose certified intervals meet are put in
    exact order (``_compare``).
    """
    return _table(n, r1, r2, {})


def _sqrt_key(couplings: tuple[int, ...], v: float, radius: float) -> tuple[int, int] | None:
    """(sign, mu) if the block's eigenvalue in v -+ radius is proven to be sign * sqrt(mu), else None.

    mu is the integer nearest v^2: sqrt(mu) must lie in the interval, tested
    in integers, and be an eigenvalue.  The 0.0 of an odd block is exact.
    """
    if v == 0.0:
        return 0, 0
    # s = v * v is within 2^-53 v^2 of v^2 and s - round(s) is exact, so with 8 times that margin
    # this proves at once, for most values, that no integer lies within 2 |v| radius + radius^2 of v^2
    s = v * v
    if s < 2.0**53 and abs(s - round(s)) > 2.0 * abs(v) * radius + radius * radius + 2.0**-50 * s:
        return None
    (a, da), (r, dr) = abs(v).as_integer_ratio(), radius.as_integer_ratio()
    den = max(da, dr)  # both powers of 2: the interval is (a -+ r) / den
    a, r = a * (den // da), r * (den // dr)
    mu = (2 * a * a + den * den) // (2 * den * den)
    if mu and max(a - r, 0) ** 2 <= mu * den * den <= (a + r) ** 2 \
            and tridiagonal.exact_count_sqrt(couplings, mu)[1]:
        return (1 if v > 0 else -1), mu
    return None


class _Placed(NamedTuple):
    """A line, its certified hull [lo, hi], and its key, or the block couplings and rank of its value."""

    line: SpectrumLine
    lo: float
    hi: float
    key: tuple[int, int] | None
    couplings: tuple[int, ...]
    index: int


def _table(n: int, r1: int, r2: int, blocks: dict) -> SpectrumTable:
    """``full_spectrum``, sharing solved blocks through ``blocks``: origin t's block is rows
    max(t, r1) - t .. r2 - t of the Jacobi matrix over n - 2t, so it, its keys and its Krawtchouk
    cross-check (first row 0) depend only on (n - 2t, max(t, r1) - t, r2 - t)."""
    check_band(n, r1, r2)
    placed, proven = [], {}  # (value, *_Placed) of each line of a value without a key; the values of each key
    for t in range(r2 + 1):
        block = (n - 2 * t, max(t, r1) - t, r2 - t)
        if block not in blocks:
            matrix = coupling_matrix(n, r1, r2, t)
            out, couplings = lambda_set(n, r1, r2, t, matrix), matrix.offdiag_sq
            keys = [_sqrt_key(couplings, v, rad) for v, rad in zip(out.values, out.radius)]
            blocks[block] = out, couplings, keys
        out, couplings, keys = blocks[block]
        weight = origin_multiplicity(n, t)
        for i, (v, rad, key) in enumerate(zip(out.values, out.radius, keys)):
            if key:
                proven.setdefault(key, []).append((v, t, rad, weight))
            else:
                placed.append((v, SpectrumLine(v, weight, (t,)), nextafter(v - rad, -inf), nextafter(v + rad, inf),
                               None, couplings, i))
    for key, group in proven.items():
        group.sort()  # the mean is summed in (value, t) order
        values, ts, radii, weights = zip(*group)
        line = SpectrumLine(sum(values) / len(values), sum(weights), tuple(sorted(ts)))
        lo, hi = nextafter(min(map(sub, values, radii)), -inf), nextafter(max(map(add, values, radii)), inf)
        placed.append((line.value, line, lo, hi, key, (), 0))
    # float order, then exact order where hulls meet: timsort compares a sorted line only with neighbours
    placed.sort(key=itemgetter(0))
    if any(a[3] >= b[2] for a, b in zip(placed, placed[1:])):
        placed = sorted((_Placed(*p[1:]) for p in placed), key=cmp_to_key(partial(_compare, (n, r1, r2))))
        lines = [p.line for p in placed]
    else:
        lines = [p[1] for p in placed]
    total_dim = band_vertices(n, r1, r2)
    if sum(line.multiplicity for line in lines) != total_dim:
        raise ArithmeticError(
            f"internal-error: multiplicities sum to "
            f"{sum(line.multiplicity for line in lines)}, dimension is {total_dim}"
        )
    return SpectrumTable(n, r1, r2, total_dim, tuple(lines))


def _compare(band: tuple[int, int, int], a: _Placed, b: _Placed) -> int:
    """-1 or 1 as line a's eigenvalue lies below or above line b's.

    Disjoint hulls decide by themselves.  Two keys compare as sign * sqrt(mu).
    A key and a value without one take one exact count of the value's block
    at the key, and two values without keys a dyadic grid between them
    (``_separate``).  Two lines that these do not order are an error.
    """
    if a.hi < b.lo or b.hi < a.lo:
        return -1 if a.hi < b.lo else 1
    if a.key and b.key:
        return -1 if (a.key[0], a.key[0] * a.key[1]) < (b.key[0], b.key[0] * b.key[1]) else 1
    if a.key:
        return -_compare(band, b, a)
    side = _side_of_key(a, *b.key) if b.key else _separate(a, b)
    if not side:
        raise ArithmeticError(
            f"internal-error: no exact order for the eigenvalues of origins {a.line.contributors} "
            f"and {b.line.contributors} in band {band}"
        )
    return side


def _side(i: int, count: int, is_eigenvalue: bool) -> int:
    """The sign of eigenvalue i minus x, from the count below x and whether x is an eigenvalue."""
    return -1 if i < count else int(not (i == count and is_eigenvalue))


def _side_of_key(p: _Placed, sign: int, mu: int) -> int:
    """The sign of p's eigenvalue minus sign * sqrt(mu); eigenvalue i is -(eigenvalue m - 1 - i)."""
    if not sign:
        return _side(p.index, *tridiagonal.exact_count(p.couplings, 0, 0, 0))
    i = p.index if sign > 0 else len(p.couplings) - p.index
    return sign * _side(i, *tridiagonal.exact_count_sqrt(p.couplings, mu))


def _separate(a: _Placed, b: _Placed) -> int:
    """The sign of a's eigenvalue minus b's, by exact counts of both blocks at the points of a
    dyadic grid halved between them; 0 if none separates them by the spacing 2^-120."""
    lo, hi = Fraction(min(a.lo, b.lo)), Fraction(max(a.hi, b.hi))
    while hi - lo > 2.0**-120:
        mid = (lo + hi) / 2
        num, den = mid.as_integer_ratio()
        sa, sb = (_side(p.index, *tridiagonal.exact_count(p.couplings, 0, num, den.bit_length() - 1))
                  for p in (a, b))
        if sa != sb or not sa:
            return (sa > sb) - (sa < sb)
        lo, hi = (lo, mid) if sa < 0 else (mid, hi)
    return 0


def max_eigenvalue(n: int, r: int) -> float:
    """Largest adjacency eigenvalue of the radius-r ball: n - 2 * first root."""
    check_band(n, 0, r)
    return n - 2.0 * first_root(n, r + 1)


@dataclass(frozen=True)
class VerifyReport:
    n: int
    r1: int
    r2: int
    vertex_count: int
    max_deviation: float
    passed: bool
    oracle_residual: float
    oracle_tolerance: float

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"n={self.n} r1={self.r1} r2={self.r2} vertices={self.vertex_count} "
            f"max_deviation={self.max_deviation:.3e} "
            f"multiplicities={'ok' if self.passed else 'MISMATCH'} {status}"
        )


def verify_against_oracle(
    n: int,
    r1: int,
    r2: int,
    tol: float = VERIFY_TOL,
    dense_limit: int | None = None,
) -> VerifyReport:
    """Compare the closed-form table with the brute-force eigendecomposition: one band's sweep."""
    return verify_bands([(n, r1, r2)], tol, dense_limit)[0]


def verify_bands(
    cases: list[tuple[int, int, int]],
    tol: float = VERIFY_TOL,
    dense_limit: int | None = None,
) -> list[VerifyReport]:
    """One report per band ``(n, r1, r2)`` of ``cases``, in their order.

    Predicted and oracle eigenvalues are paired in ascending order, and a band
    passes when every pair is within ``tol``.  Each distinct band is checked
    once, before any solve, by ``check_budget``, which gives its size: its
    block cells, or its vertices given ``dense_limit``; every cell count of
    the call, the oracle's included, shares one table per n (``cells``).
    Consecutive bands form a batch while their sizes add up to at most
    ORACLE_CELL_BUDGET, or ``dense_limit``; each batch takes one
    ``oracle_spectra`` call, and the tables of the sweep share their block
    solves.  Within a batch, consecutive bands of one n form a run while the
    run's hull, the band of their least r1 to their greatest r2, is one of
    the bands or passes ``check_budget``, checked once; each run builds one
    graph, its hull, all of a batch's hulls from one recursion
    (``build_graphs``), and the oracle cuts each band's blocks out of the
    hull's.  A batch's predicted and oracle values are paired and compared in
    one pass.
    """
    check_tol(tol)
    cells: dict = {}  # oracle_cells' table of each n, kept for this call alone
    sizes: dict[tuple, int | None] = {
        band: check_budget(*band, dense_limit, cells) for band in dict.fromkeys(cases)
    }
    budget = hamming.ORACLE_CELL_BUDGET if dense_limit is None else dense_limit
    blocks: dict = {}
    batches: list[list[list]] = []  # each a list of runs [n, lo, hi, tables]
    total = 0  # the size of the last batch's bands
    for n, r1, r2 in cases:
        table = _table(n, r1, r2, blocks)
        if not batches or total + sizes[n, r1, r2] > budget:
            batches.append([])
            total = 0
        total += sizes[n, r1, r2]
        runs = batches[-1]
        if runs and runs[-1][0] == n:
            joined = n, min(runs[-1][1], r1), max(runs[-1][2], r2)  # the run's hull with this band
            if joined not in sizes:
                try:
                    sizes[joined] = check_budget(*joined, dense_limit, cells)
                except BudgetExceededError:
                    sizes[joined] = None  # over a budget: the band starts a new run
            if sizes[joined] is not None:
                runs[-1][1:3] = joined[1:]
                runs[-1][3].append(table)
                continue
        runs.append([n, r1, r2, [table]])
    reports = []
    for runs in batches:
        hulls = build_graphs([(n, lo, hi) for n, lo, hi, _ in runs])
        bands = [(hull, t) for hull, run in zip(hulls, runs) for t in run[3]]
        oracles = oracle_spectra([(g, t.r1, t.r2) for g, t in bands], dense_limit=dense_limit, _tables=cells)
        # the batch's predicted and oracle values, paired in one pass; a band of the wrong size is off by inf
        fit = [(t, o.eigenvalues) for (_, t), o in zip(bands, oracles) if len(o.eigenvalues) == t.total_dim]
        lines = [line for t, _ in fit for line in t.lines]
        gaps = np.abs(np.concatenate([[], *(w for _, w in fit)])
                      - np.repeat([line.value for line in lines], [line.multiplicity for line in lines]))
        starts = np.cumsum([0, *(t.total_dim for t, _ in fit)])[:-1]
        worst = iter(np.maximum.reduceat(gaps, starts).tolist() if fit else [])
        for (_, t), oracle in zip(bands, oracles):
            deviation = next(worst) if len(oracle.eigenvalues) == t.total_dim else inf
            reports.append(VerifyReport(t.n, t.r1, t.r2, len(oracle.eigenvalues), deviation, deviation <= tol,
                                        oracle.residual_bound, oracle.tolerance))
        del bands, hulls  # before the next batch's graphs are built
    return reports
