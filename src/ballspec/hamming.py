"""Induced subgraphs of the binary cube on weight bands, plus a dense oracle.

Vertices of the band graph are the bitmasks of weight r1..r2 in a fixed
order: ascending weight, then ascending numeric mask value.  That makes
each sphere a contiguous index range and gives the two-sphere case the
bipartite block layout [[0, C], [C^T, 0]] for the incidence matrix C.

Every edge joins weights of opposite parity, so every band graph is
bipartite.  The dense oracle uses that: it takes the SVD of the dense 0/1
even x odd biadjacency B (|even|*|odd| doubles, never the V x V adjacency),
and the adjacency eigenvalues are +-sigma for each singular value of B plus
abs(|even| - |odd|) structural zeros (Jordan-Wielandt).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError, ZeroFunctionError, check_band

DEFAULT_GRAPH_LIMIT = 2_000_000
DEFAULT_DENSE_LIMIT = 5000
MAX_DIMENSION = 64  # bitmask width cap


def weight_masks(n: int, w: int) -> Iterator[int]:
    """All n-bit masks of weight w, in ascending numeric order (Gosper's hack)."""
    if w == 0:
        yield 0
        return
    v = (1 << w) - 1
    top = 1 << n
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


@dataclass(frozen=True)
class InducedGraph:
    """Immutable vertex indexing + adjacency for the weight band [r1, r2]."""

    n: int
    r1: int
    r2: int
    masks: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    sphere_start: dict[int, int]
    edge_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    def weight_of(self, v: int) -> int:
        return self.masks[v].bit_count()

    def sphere_slice(self, i: int) -> slice:
        if not self.r1 <= i <= self.r2:
            raise InvalidParameterError(f"sphere {i} outside band [{self.r1}, {self.r2}]")
        start = self.sphere_start[i]
        stop = self.sphere_start[i + 1] if i < self.r2 else len(self.masks)
        return slice(start, stop)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def dense_adjacency(self) -> np.ndarray:
        a = np.zeros((self.vertex_count, self.vertex_count))
        for u, nbrs in enumerate(self.adjacency):
            a[u, list(nbrs)] = 1.0
        return a

    def apply_adjacency(self, f: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the adjacency, via the neighbor lists."""
        out = np.zeros(self.vertex_count)
        for u, nbrs in enumerate(self.adjacency):
            if nbrs:
                out[u] = f[list(nbrs)].sum()
        return out

    def edge_lines(self) -> Iterator[str]:
        """Edge-list export, one "u v" line per edge, 0-based, u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield f"{u} {v}"


def build_graph(
    n: int, r1: int, r2: int, max_vertices: int = DEFAULT_GRAPH_LIMIT
) -> InducedGraph:
    """Build the induced subgraph on the weight band [r1, r2]."""
    if n < 0 or n > MAX_DIMENSION:
        raise InvalidParameterError(f"dimension must be in [0, {MAX_DIMENSION}], got {n}")
    check_band(n, r1, r2)
    vertex_count = sum(math.comb(n, i) for i in range(r1, r2 + 1))
    if vertex_count > max_vertices:
        raise BudgetExceededError(
            f"band ({n},{r1},{r2}) has {vertex_count} vertices, budget {max_vertices}",
            vertex_count=vertex_count,
        )
    masks: list[int] = []
    sphere_start: dict[int, int] = {}
    for i in range(r1, r2 + 1):
        sphere_start[i] = len(masks)
        masks.extend(weight_masks(n, i))
    index = {m: v for v, m in enumerate(masks)}
    adjacency: list[list[int]] = [[] for _ in masks]
    edges = 0
    for i in range(r1 + 1, r2 + 1):
        for v in range(sphere_start[i], sphere_start[i + 1] if i < r2 else len(masks)):
            mask = masks[v]
            m = mask
            while m:
                bit = m & -m
                u = index[mask ^ bit]
                adjacency[u].append(v)
                adjacency[v].append(u)
                edges += 1
                m ^= bit
    return InducedGraph(
        n=n,
        r1=r1,
        r2=r2,
        masks=tuple(masks),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        sphere_start=sphere_start,
        edge_count=edges,
    )


def incidence_matrix(n: int, r: int) -> np.ndarray:
    """The C(n,r-1) x C(n,r) containment matrix between weights r-1 and r.

    Rows and columns follow the same ascending-mask order as build_graph, so
    the adjacency of the band (r-1, r) is exactly [[0, C], [C^T, 0]].
    """
    if not 1 <= r <= n // 2:
        raise InvalidParameterError(f"need 1 <= r <= n//2, got r={r}, n={n}")
    rows = math.comb(n, r - 1)
    cols = math.comb(n, r)
    if rows + cols > DEFAULT_GRAPH_LIMIT:
        raise BudgetExceededError(
            f"incidence ({n},{r}) needs {rows + cols} vertices, budget {DEFAULT_GRAPH_LIMIT}",
            vertex_count=rows + cols,
        )
    row_index = {m: i for i, m in enumerate(weight_masks(n, r - 1))}
    mat = np.zeros((rows, cols))
    for j, mask in enumerate(weight_masks(n, r)):
        m = mask
        while m:
            bit = m & -m
            mat[row_index[mask ^ bit], j] = 1.0
            m ^= bit
    return mat


@dataclass(frozen=True)
class OracleSpectrum:
    """Brute-force dense eigendecomposition of a band adjacency matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    tolerance: float


def oracle_spectrum(
    g: InducedGraph, want_vectors: bool = False, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> OracleSpectrum:
    """All eigenvalues (ascending) of the adjacency matrix, with residuals.

    Brute force on the bipartite split: with B = U diag(s) V^T the SVD of the
    even x odd biadjacency, the eigenpairs are (+-s_i, [u_i; +-v_i]/sqrt(2))
    and (0, [u; 0] or [0; v]) for each extra column of the full U or V.
    Eigenvectors come back in the graph's vertex order, one column per
    eigenvalue.  The residual bound is the largest of |B v_i - s_i u_i| and
    |B^T u_i - s_i v_i| over the singular triplets (and |B^T u| or |B v| over
    the null columns when vectors are returned); it bounds every eigenpair
    residual.  The documented tolerance is 1e-10 * vertex_count; a residual
    above it is an internal error, not a report.
    """
    if g.vertex_count > dense_limit:
        raise BudgetExceededError(
            f"{g.vertex_count} vertices exceed the dense oracle limit {dense_limit}",
            vertex_count=g.vertex_count,
        )
    odd_weight = np.array([m.bit_count() % 2 for m in g.masks], dtype=bool)
    even, odd = np.flatnonzero(~odd_weight), np.flatnonzero(odd_weight)
    position = np.empty(g.vertex_count, dtype=int)
    position[even] = np.arange(len(even))
    position[odd] = np.arange(len(odd))
    b = np.zeros((len(even), len(odd)))
    for row, v in enumerate(even):
        b[row, position[list(g.adjacency[v])]] = 1.0

    u, s, vt = np.linalg.svd(b, full_matrices=want_vectors)
    k = len(s)
    uk, vk = u[:, :k], vt[:k].T
    parts = [b @ vk - uk * s, b.T @ uk - vk * s]
    if want_vectors:
        parts += [b.T @ u[:, k:], b @ vt[k:].T]
    residual = max(
        (float(np.linalg.norm(part, axis=0).max()) for part in parts if part.size), default=0.0
    )
    tolerance = 1e-10 * max(1, g.vertex_count)
    if residual > tolerance:
        raise ArithmeticError(
            f"internal-error: oracle residual {residual:.3e} above tolerance {tolerance:.3e}"
        )
    # s is descending, so this is ascending
    w = np.concatenate([-s, np.zeros(g.vertex_count - 2 * k), s[::-1]])
    if not want_vectors:
        return OracleSpectrum(w, None, residual, tolerance)
    h = math.sqrt(0.5)
    x = np.empty((g.vertex_count, g.vertex_count))
    x[even] = np.hstack([uk * h, u[:, k:], np.zeros((len(even), len(odd) - k)), uk[:, ::-1] * h])
    x[odd] = np.hstack([vk * -h, np.zeros((len(odd), len(even) - k)), vt[k:].T, vk[:, ::-1] * h])
    return OracleSpectrum(w, x, residual, tolerance)


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
