"""Induced subgraphs of the binary cube on weight bands, plus a dense oracle.

Vertices of the band graph are the bitmasks of weight r1..r2 in a fixed
order: ascending weight, then ascending numeric mask value.  That makes
each sphere a contiguous index range and gives the two-sphere case the
bipartite block layout [[0, C], [C^T, 0]] for the incidence matrix C.

The graph is stored as read-only numpy arrays: the uint64 masks, and the
adjacency in CSR form (``indptr``, ``indices``, each row ascending).
``build_graph`` makes each sphere's masks in ascending order by a
recurrence on the bit count and fills the rows a chunk of vertices at a
time, flipping each bit and binary-searching the adjacent sphere, so no
temporary of V x n entries is held for the whole graph.  ``InducedGraph.band``
cuts the graph of a sub-band out of a built one by slicing, with no search:
a sweep over many bands of one dimension builds one graph.

Every edge joins weights of opposite parity, so every band graph is
bipartite, and every permutation of the coordinates maps it onto itself.
The dense oracle uses both.  The swaps of coordinates (0 1), (2 3), ...
commute with the adjacency, so in their symmetry-adapted basis it falls
apart into one small block per character of the group they generate; each
block is bipartite again, [[0, B_S], [B_S^T, 0]].  The oracle takes one SVD
per block shape (stacked), and the adjacency eigenvalues are +-sigma for
each singular value of B_S plus abs(rows - columns) structural zeros per
block (Jordan-Wielandt).  It never holds the V x V adjacency or the whole
even x odd biadjacency: without eigenvectors it holds only the blocks.
``oracle_spectra`` does all of this in one pass for a list of graphs, with
orbits and characters keyed per graph, and every check made per graph;
``oracle_spectrum`` is its batch of one.  The (orbit, character) pairs are
indexed directly, by the orbit's first pair plus the character's rank
among the submasks of the orbit's mixed pairs, so an edge finds its block
entry by arithmetic, not by a search.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError, check_band

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


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Immutable vertex indexing + adjacency for the weight band [r1, r2], as read-only arrays.

    ``masks`` (uint64) holds the vertices in the module's order, and
    ``sphere_start[i]`` is the index of the first vertex of weight i.  The
    adjacency is in CSR form: the neighbours of vertex u are
    ``indices[indptr[u]:indptr[u + 1]]``, ascending.  ``edge_count`` is the
    number of edges, counted from the sphere sizes, not from the arrays.
    """

    n: int
    r1: int
    r2: int
    masks: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    sphere_start: dict[int, int]
    edge_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    def weight_of(self, v: int) -> int:
        return int(self.masks[v]).bit_count()

    def sphere_slice(self, i: int) -> slice:
        if not self.r1 <= i <= self.r2:
            raise InvalidParameterError(f"sphere {i} outside band [{self.r1}, {self.r2}]")
        start = self.sphere_start[i]
        stop = self.sphere_start[i + 1] if i < self.r2 else len(self.masks)
        return slice(start, stop)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def band(self, r1: int, r2: int) -> InducedGraph:
        """The induced subgraph on the sub-band [r1, r2], equal to ``build_graph(n, r1, r2)``.

        Its arrays are new and read-only; the graph itself is returned when
        the band is all of it.  A row of sphere i lists its neighbours below,
        then those above, each ascending, so a sphere's rows are one
        (size, degree) array: the sub-band drops the columns below in sphere
        r1 and above in sphere r2, and shifts the rest by its first index.
        """
        if not self.r1 <= r1 <= r2 <= self.r2:
            raise InvalidParameterError(
                f"band [{r1}, {r2}] outside the graph's band [{self.r1}, {self.r2}]"
            )
        if (r1, r2) == (self.r1, self.r2):
            return self
        spheres = [self.sphere_slice(i) for i in range(r1, r2 + 1)]
        sphere_start, indptr = _layout(self.n, r1, r2, [s.stop - s.start for s in spheres])
        base = spheres[0].start
        rows = []
        for i, s in zip(range(r1, r2 + 1), spheres):
            below = i if i > self.r1 else 0  # the row's columns below; the rest are above
            block = self.indices[self.indptr[s.start] : self.indptr[s.stop]]
            block = block.reshape(s.stop - s.start, -1)
            rows.append(block[:, below if i == r1 else 0 : below if i == r2 else None].ravel())
        indices = np.concatenate(rows) - base
        masks = self.masks[base : spheres[-1].stop].copy()
        return _frozen(self.n, r1, r2, masks, indptr, indices, sphere_start)

    def dense_adjacency(self) -> np.ndarray:
        a = np.zeros((self.vertex_count, self.vertex_count))
        a[np.repeat(np.arange(self.vertex_count), np.diff(self.indptr)), self.indices] = 1.0
        return a

    def apply_adjacency(self, f: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the adjacency, one neighbour sum per vertex."""
        out = np.zeros(self.vertex_count)
        bounds, indices = self.indptr.tolist(), self.indices
        for u, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if b > a:
                out[u] = f[indices[a:b]].sum()
        return out

    def edge_lines(self) -> Iterator[str]:
        """Edge-list export, one "u v" line per edge, 0-based, u < v."""
        bounds, indices = self.indptr.tolist(), self.indices.tolist()
        for u, (a, b) in enumerate(zip(bounds, bounds[1:])):
            for v in indices[a:b]:
                if u < v:
                    yield f"{u} {v}"


def check_vertex_budget(n: int, r1: int, r2: int, max_vertices: int) -> None:
    """Raise unless the weight band [r1, r2] is valid and has at most ``max_vertices`` vertices."""
    if n < 0 or n > MAX_DIMENSION:
        raise InvalidParameterError(f"dimension must be in [0, {MAX_DIMENSION}], got {n}")
    check_band(n, r1, r2)
    vertex_count = sum(math.comb(n, i) for i in range(r1, r2 + 1))
    if vertex_count > max_vertices:
        raise BudgetExceededError(
            f"band ({n},{r1},{r2}) has {vertex_count} vertices, budget {max_vertices}",
            vertex_count=vertex_count,
        )


# Rows per neighbour lookup in build_graph: its temporaries stay near _CHUNK_ROWS x n words.
_CHUNK_ROWS = 2048


def _spheres(n: int, top: int) -> list[np.ndarray]:
    """Per weight w <= top, the n-bit masks of weight w, ascending, as uint64 arrays.

    The k+1-bit masks of weight w are the k-bit ones followed by the k-bit
    ones of weight w - 1 with bit k set, so each step keeps the order.
    """
    spheres = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * top
    for k in range(n):
        bit = np.uint64(1 << k)
        spheres = [spheres[0]] + [
            np.concatenate([spheres[w], spheres[w - 1] | bit]) for w in range(1, top + 1)
        ]
    return spheres


def build_graph(
    n: int, r1: int, r2: int, max_vertices: int = DEFAULT_GRAPH_LIMIT
) -> InducedGraph:
    """Build the induced subgraph on the weight band [r1, r2].

    ``indptr`` follows from the sphere sizes (``_layout``).  The rows are
    filled a chunk of ``_CHUNK_ROWS`` vertices at a time: flipping each bit
    gives the neighbours' masks, and a binary search in the adjacent sphere
    their indices.  Clearing bit b lowers a mask by 2^b, so the neighbours
    below, taken from the highest bit down, ascend, and so do the ones
    above, taken from the lowest bit up; the sphere below comes first in the
    vertex order, so every row ascends without a sort.
    """
    check_vertex_budget(n, r1, r2, max_vertices)
    spheres = _spheres(n, r2)
    sphere_start, indptr = _layout(n, r1, r2, [len(spheres[i]) for i in range(r1, r2 + 1)])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    bits = np.left_shift(_ONE, np.arange(n, dtype=np.uint64))
    for i in range(r1, r2 + 1):
        for lo in range(0, len(spheres[i]), _CHUNK_ROWS):
            rows = spheres[i][lo : lo + _CHUNK_ROWS]
            flipped = rows[:, None] ^ bits
            has = (rows[:, None] & bits) != 0
            parts = []
            if i > r1:
                below = flipped[has].reshape(len(rows), i)[:, ::-1]
                parts.append(sphere_start[i - 1] + np.searchsorted(spheres[i - 1], below))
            if i < r2:
                above = flipped[~has].reshape(len(rows), n - i)
                parts.append(sphere_start[i + 1] + np.searchsorted(spheres[i + 1], above))
            if parts:
                first = sphere_start[i] + lo
                indices[indptr[first] : indptr[first + len(rows)]] = np.hstack(parts).ravel()
    return _frozen(n, r1, r2, np.concatenate(spheres[r1 : r2 + 1]), indptr, indices, sphere_start)


def _layout(n: int, r1: int, r2: int, sizes: list[int]) -> tuple[dict[int, int], np.ndarray]:
    """Sphere starts and CSR row pointers of the band [r1, r2] with these sphere sizes.

    Every vertex of sphere i has i neighbours below (if i > r1) and n - i
    above (if i < r2).
    """
    starts = np.cumsum([0] + sizes).tolist()
    degrees = [(i if i > r1 else 0) + (n - i if i < r2 else 0) for i in range(r1, r2 + 1)]
    indptr = np.zeros(starts[-1] + 1, dtype=np.int64)
    np.cumsum(np.repeat(degrees, sizes), out=indptr[1:])
    return dict(zip(range(r1, r2 + 1), starts)), indptr


def _frozen(
    n: int, r1: int, r2: int, masks: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
    sphere_start: dict[int, int],
) -> InducedGraph:
    """The graph of these arrays, made read-only, with its edge count from the sphere sizes."""
    for array in (masks, indptr, indices):
        array.setflags(write=False)
    edge_count = sum(math.comb(n, i) * i for i in range(r1 + 1, r2 + 1))
    return InducedGraph(n, r1, r2, masks, indptr, indices, sphere_start, edge_count)


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


_ONE = np.uint64(1)


def _popcount(a: np.ndarray) -> np.ndarray:
    """Bit counts of a uint64 array as int64, by SWAR sums (np.bitwise_count needs numpy 2)."""
    a = a - ((a >> _ONE) & np.uint64(0x5555555555555555))
    a = (a & np.uint64(0x3333333333333333)) + ((a >> np.uint64(2)) & np.uint64(0x3333333333333333))
    a = (a + (a >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((a * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _submasks(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every submask of every entry of the uint64 array ``sets``.

    Returns (owner, submask): owner[i] indexes ``sets`` and submask[i] runs
    over the 2^|set| submasks of sets[owner[i]], the k-th one taking the
    bits of k, low to high, as its choice of set bits.
    """
    sizes = _popcount(sets)
    counts = np.left_shift(1, sizes)
    owner = np.repeat(np.arange(len(sets)), counts)
    rank = (np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)).astype(np.uint64)
    rest = sets[owner]
    sub = np.zeros(len(owner), dtype=np.uint64)
    for _ in range(int(sizes.max(initial=0))):
        low = rest & (~rest + _ONE)
        sub |= low * (rank & _ONE)
        rest ^= low
        rank >>= _ONE
    return owner, sub


def _submask_rank(sets: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """The k under which ``_submasks`` lists subs[i] among the submasks of sets[i].

    Bit j of k is the bit of subs[i] at the j-th lowest set bit of sets[i].
    """
    rank = np.zeros(len(sets), dtype=np.int64)
    rest, j = sets.copy(), 0
    while rest.any():
        low = rest & (~rest + _ONE)
        rank |= ((subs & low) != 0).astype(np.int64) << j
        rest ^= low
        j += 1
    return rank


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Position of each entry among the entries of the same group, in array order."""
    order = np.argsort(groups, kind="stable")
    rank = np.empty(len(groups), dtype=np.int64)
    rank[order] = np.arange(len(groups))
    sizes = np.bincount(groups)
    return rank - (np.cumsum(sizes) - sizes)[groups]


def _keys(graph: np.ndarray, values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Keys of (graph, value) pairs, in their order; distinct for values in the sorted ``table``."""
    return graph * (len(table) + 1) + np.searchsorted(table, values)


def _check_swap_invariance(graphs, graph, masks, sorted_masks, mixed, src, dst) -> None:
    """Raise unless every swap (2j, 2j+1), j < n // 2, maps each graph's edges onto themselves."""
    v_count = len(masks)
    keys = _keys(graph, masks, sorted_masks)
    order = np.argsort(keys)
    ordered = keys[order]
    codes = np.sort(src * v_count + dst)
    for j in range(max(g.n // 2 for g in graphs)):
        bit = np.uint64(1 << 2 * j)
        image = np.where(mixed & bit, masks ^ (bit | bit << _ONE), masks)
        moved = order[np.minimum(np.searchsorted(ordered, _keys(graph, image, sorted_masks)), v_count - 1)]
        wrong = np.sort(moved[src] * v_count + moved[dst]) != codes
        # a graph maps only onto itself or the next, so the first one flagged is at fault
        bad = (masks[moved] != image) | (graph[moved] != graph)
        bad = np.r_[graph[bad], graph[codes[wrong] // v_count]]
        if bad.size:
            g = graphs[bad.min()]
            raise InvalidParameterError(
                f"the graph ({g.n},{g.r1},{g.r2}) is not invariant under the swap of coordinates "
                f"{2 * j} and {2 * j + 1}"
            )


def oracle_spectrum(
    g: InducedGraph, want_vectors: bool = False, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> OracleSpectrum:
    """All eigenvalues (ascending) of the adjacency, with residuals: ``oracle_spectra`` of [g]."""
    return oracle_spectra([g], want_vectors, dense_limit)[0]


def oracle_spectra(
    graphs: list[InducedGraph], want_vectors: bool = False, dense_limit: int = DEFAULT_DENSE_LIMIT
) -> list[OracleSpectrum]:
    """The oracle spectrum of each graph, from one pass over all of them.

    Brute force on the symmetry-adapted blocks of the adjacency A.  The
    coordinate swaps tau_j = (2j, 2j+1), j < n//2, permute the band and
    commute with A.  Under the group they generate, the orbit O of a mask
    x is fixed by its mixed pairs M(x) (pair j reads 01 or 10) and its
    representative, which reads 01 on every mixed pair; |O| = 2^|M(x)|.
    For a character S (a set of pairs) the vectors
    b_O = sum_{x in O} (-1)^{|S & F(x)|} e_x / sqrt|O|, with F(x) the pairs
    reading 10, over the orbits with S inside M(O), are orthonormal, span
    an A-invariant subspace, and all of them together span R^V.  A is
    bipartite by weight parity, so its block for S is [[0, B_S], [B_S^T, 0]]
    with B_S[O, O'] = b_O^T A b_O' over even-weight rows and odd-weight
    columns; on a swap-invariant graph that is
    sqrt(|O|/|O'|) * sum over edges from the representative of O into O'
    of the sign of the far end.  Only the characters inside some M(O) are
    visited.

    The graphs are one disjoint union, each vertex with its own graph's pairs;
    orbits and characters are keyed by graph, so every block, sum and bound is one graph's.

    The V (orbit, character) pairs are listed orbit by orbit, the characters
    of O in ``_submasks``' order, so the pair (O, S) is O's first pair plus
    the rank of S among the submasks of M(O) (``_submask_rank``, at most
    n // 2 bit steps).  Each pair's block, and its row or column there, is
    worked out once; the (edge, character) pairs and the rows of the
    eigenvector lift then find their block entries with no search.

    Each B_S = U diag(s) V^T gives the eigenpairs (+-s_i, [u_i; +-v_i]/sqrt(2))
    and (0, [u; 0] or [0; v]) for each extra column of the full U or V;
    blocks of one shape share one stacked SVD.  Eigenvectors are lifted
    through the basis and come back in the graph's vertex order, one column
    per eigenvalue.  The residual bound is the largest of |B v_i - s_i u_i|
    and |B^T u_i - s_i v_i| over every block's singular triplets (and |B^T u|
    or |B v| over the null columns when vectors are returned); the basis
    is orthonormal, so it bounds every eigenpair residual of A.  The
    documented tolerance is 1e-10 * vertex_count; a residual above it is an
    internal error, not a report.

    Two self-checks keep this a check of each graph itself: every tau_j must
    map the edge set onto itself (else InvalidParameterError), and the
    squared Frobenius norms of the B_S must add up to edge_count, which is
    half of tr A^2, to within 1e-12 * edge_count (else ArithmeticError).
    """
    for g in graphs:
        if g.vertex_count > dense_limit:
            raise BudgetExceededError(
                f"{g.vertex_count} vertices exceed the dense oracle limit {dense_limit}",
                vertex_count=g.vertex_count,
            )
    sizes = [g.vertex_count for g in graphs]
    first = np.cumsum([0] + sizes)
    graph = np.repeat(np.arange(len(graphs)), sizes)  # of each vertex
    masks = np.concatenate([g.masks for g in graphs])
    low_bits = np.array([sum(1 << 2 * j for j in range(g.n // 2)) for g in graphs], dtype=np.uint64)
    low, high = masks & low_bits[graph], (masks >> _ONE) & low_bits[graph]
    mixed, flipped = low ^ high, high & ~low  # both on the low bit of each pair
    odd = (_popcount(masks) & 1).astype(bool)

    # directed edges out of the even-weight vertices
    src = np.repeat(np.arange(len(masks)), np.concatenate([np.diff(g.indptr) for g in graphs]))
    dst = np.concatenate([g.indices + start for g, start in zip(graphs, first.tolist())])
    even_src = ~odd[src]
    src, dst = src[even_src], dst[even_src]

    table = np.sort(masks)
    _check_swap_invariance(graphs, graph, masks, table, mixed, src, dst)
    reps = _keys(graph, masks ^ flipped ^ (flipped << _ONE), table)  # swaps keep the masks
    reps, member, orbit = np.unique(reps, return_index=True, return_inverse=True)
    orbit_count = len(reps)
    orbit_mixed, orbit_odd, orbit_graph = mixed[member], odd[member], graph[member]

    # (orbit, character) pairs: their count is V; place each in its block
    pair_orbit, pair_char = _submasks(orbit_mixed)
    char_set = np.sort(pair_char)
    chars, pair_cid = np.unique(
        _keys(orbit_graph[pair_orbit], pair_char, char_set), return_inverse=True
    )
    pair_odd = orbit_odd[pair_orbit]
    rows = np.bincount(pair_cid[~pair_odd], minlength=len(chars))
    cols = np.bincount(pair_cid[pair_odd], minlength=len(chars))
    by_shape = np.lexsort((cols, rows))  # blocks of one shape are adjacent
    slot = np.empty(len(chars), dtype=np.int64)
    slot[by_shape] = np.arange(len(chars))
    rows, cols = rows[by_shape], cols[by_shape]
    block_graph = (chars // (len(char_set) + 1))[by_shape]
    # each pair's block, and its row (even orbit) or column (odd orbit) there: the pairs come in
    # orbit order, so that is its rank among the pairs of its block and side
    pair_slot = slot[pair_cid]
    pair_local = _rank_in_group(pair_slot * 2 + pair_odd)
    counts = np.left_shift(1, _popcount(orbit_mixed))
    pair_start = np.cumsum(counts) - counts

    def pair_of(orbits: np.ndarray, characters: np.ndarray) -> np.ndarray:
        """Index of each pair (orbit, character): the orbit's first pair plus the character's rank."""
        return pair_start[orbits] + _submask_rank(orbit_mixed[orbits], characters)

    # (edge, character) pairs from the representatives of the even orbits
    from_rep = flipped[src] == 0
    x, y = src[from_rep], dst[from_rep]
    edge, char = _submasks(mixed[x] & mixed[y])
    x, y = x[edge], y[edge]
    sign = 1.0 - 2.0 * (_popcount(char & flipped[y]) & 1)
    weight = sign * np.exp2((_popcount(mixed[x]) - _popcount(mixed[y])) / 2.0)
    at_x, at_y = pair_of(orbit[x], char), pair_of(orbit[y], char)
    del src, dst, x, y, edge, char, sign  # each edge array lives only until its last use
    edge_slot = pair_slot[at_x]
    offset = np.cumsum(rows * cols) - rows * cols
    cell = offset[edge_slot] + pair_local[at_x] * cols[edge_slot] + pair_local[at_y]
    del at_x, at_y, edge_slot
    flat = np.bincount(cell, weights=weight, minlength=int((rows * cols).sum()))
    del cell, weight  # the blocks hold all they said

    shape_change = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    bounds = [0, *(np.flatnonzero(shape_change) + 1).tolist(), len(chars)]
    h = math.sqrt(0.5)
    values, lifts, residual, frobenius = [], [], np.zeros(len(graphs)), np.zeros(len(graphs))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        count, r, c = stop - start, int(rows[start]), int(cols[start])
        d, k = r + c, min(r, c)
        if k == 0:
            values.append(np.zeros(count * d))
            lifts.append(np.broadcast_to(np.eye(d), (count, d, d)))
            continue
        b = flat[offset[start] : offset[start] + count * r * c].reshape(count, r, c)
        np.add.at(frobenius, block_graph[start:stop], np.einsum("kij,kij->k", b, b))
        u, s, vt = np.linalg.svd(b, full_matrices=want_vectors)
        uk, vk = u[:, :, :k], vt[:, :k].transpose(0, 2, 1)
        sk = s[:, None, :]
        parts = [b @ vk - uk * sk, b.transpose(0, 2, 1) @ uk - vk * sk]
        if want_vectors:
            parts += [b.transpose(0, 2, 1) @ u[:, :, k:], b @ vt[:, k:].transpose(0, 2, 1)]
        norms = [np.linalg.norm(part, axis=1).max(axis=1) for part in parts if part.size]
        np.maximum.at(residual, block_graph[start:stop], np.max(norms, axis=0))
        values.append(np.concatenate([-s, np.zeros((count, d - 2 * k)), s], axis=1).ravel())
        if want_vectors:
            y_blk = np.zeros((count, d, d))
            y_blk[:, :r, :k] = y_blk[:, :r, d - k :] = uk * h
            y_blk[:, r:, :k] = vk * -h
            y_blk[:, r:, d - k :] = vk * h
            y_blk[:, :r, k:r] = u[:, :, k:]
            y_blk[:, r:, r : d - k] = vt[:, k:].transpose(0, 2, 1)
            lifts.append(y_blk)
    checked = [(bound, 1e-10 * max(1, size)) for bound, size in zip(residual.tolist(), sizes)]
    for g, norm, (bound, limit) in zip(graphs, frobenius.tolist(), checked):
        if abs(norm - g.edge_count) > 1e-12 * g.edge_count:
            raise ArithmeticError(
                f"internal-error: block norms add up to {norm!r}, not {g.edge_count} edges"
            )
        if bound > limit:
            raise ArithmeticError(
                f"internal-error: oracle residual {bound:.3e} above tolerance {limit:.3e}"
            )
    w = np.concatenate(values)
    # each graph's columns, in block order: the order of the graph on its own
    columns = np.split(np.argsort(np.repeat(block_graph, rows + cols), kind="stable"), first[1:-1])
    if not want_vectors:
        return [OracleSpectrum(np.sort(w[cs]), None, *check) for cs, check in zip(columns, checked)]

    # X[x, column] = (-1)^{|S & F(x)|} / sqrt|O(x)| * (block vector)[O(x)]
    vertex, char = _submasks(mixed)
    at = pair_of(orbit[vertex], char)
    vertex_slot = pair_slot[at]
    row = pair_local[at] + np.where(odd[vertex], rows[vertex_slot], 0)
    weight = (1.0 - 2.0 * (_popcount(char & flipped[vertex]) & 1)) * np.exp2(
        -_popcount(mixed[vertex]) / 2.0
    )
    column = np.cumsum(rows + cols) - rows - cols
    x_mat = np.zeros((len(masks), len(masks)))
    for start, stop, y_blk in zip(bounds[:-1], bounds[1:], lifts):
        hit = (vertex_slot >= start) & (vertex_slot < stop)
        at, span = vertex_slot[hit], np.arange(y_blk.shape[2])
        x_mat[vertex[hit, None], column[at, None] + span] = (
            weight[hit, None] * y_blk[at - start, row[hit]]
        )
    ascending = [cs[np.argsort(w[cs], kind="stable")] for cs in columns]
    return [
        OracleSpectrum(w[at], x_mat[lo:hi, at], *check)
        for at, lo, hi, check in zip(ascending, first, first[1:], checked)
    ]
