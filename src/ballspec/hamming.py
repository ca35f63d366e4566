"""Induced subgraphs of the binary cube on weight bands, plus a dense oracle.

Vertices of the band graph are the bitmasks of weight r1..r2 in a fixed
order: ascending weight, then ascending numeric mask value.  That makes
each sphere a contiguous index range and gives the two-sphere case the
bipartite block layout [[0, C], [C^T, 0]] for the incidence matrix C.

The graph is stored as read-only numpy arrays: the uint64 masks, and the
adjacency in CSR form (``indptr``, ``indices``, each row ascending).
``build_graphs`` makes each sphere's masks in ascending order, and the
indices of each mask's neighbours in the adjacent spheres, by one recurrence
on the bit count, with no search; a list of bands shares the recurrence of
the widest, and its peak is about 1.5 times that band's graph.

Every edge joins weights of opposite parity, so every band graph is
bipartite, and every permutation of the coordinates maps it onto itself.
The dense oracle uses both.  The swaps of coordinates (0 1), (2 3), ...
commute with the adjacency, so in their symmetry-adapted basis it falls
apart into one small block per character of the group they generate; each
block is bipartite again, [[0, B_S], [B_S^T, 0]].  The exchange of the two
lowest coordinate pairs outside S, which the graph must also keep, fixes S
and commutes with the adjacency, so it splits a block B_S of SPLIT_CELLS
cells or more into an even and an odd half (Clifford theory, as in Serre,
Linear Representations of Finite Groups, section 8).  The oracle takes one
SVD per shape (stacked) over the distinct blocks or halves of that shape,
byte for byte, and the adjacency eigenvalues are +-sigma for each singular
value plus abs(rows - columns) structural zeros per block or half
(Jordan-Wielandt).  It never holds the V x V adjacency or the whole even x
odd biadjacency, only the blocks, whose cells ``oracle_cells`` counts in
closed form from a table of n (one per n for a caller that shares it) before
any split, which bounds the cells it factors; its budget is in those cells.
``oracle_spectra`` does all of this in one pass for a list of bands, each a
weight range r1..r2 of a built graph: it builds each graph's blocks once,
with orbits and characters keyed per graph, and cuts each band's blocks out
of its graph's, so a sweep over many bands of one dimension builds one
graph; ``oracle_spectrum`` is its batch of one.  The (orbit, character)
pairs are indexed directly, by the orbit's first pair plus the character's rank
among the submasks of the orbit's mixed pairs, so an edge finds its block
entry by arithmetic, not by a search.  The swap check finds the image of a
mask by arithmetic too, from its place in the vertex order above: the
oracle relies on that order, and names a graph that breaks it.  A graph
that a block's exchange does not keep is named too, with the two pairs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError, check_band

DEFAULT_GRAPH_LIMIT = 2_000_000
# Cells sum_S rows_S * cols_S of the oracle's blocks (``oracle_cells``) in one graph, and in one batch
# of ``verify_bands``, when no vertex limit is given: 32 MiB of float64 (BENCH_cell_budget.json).
ORACLE_CELL_BUDGET = 1 << 22
# Vertices of one such graph: a band of one sphere has no cells, but its graph and the oracle's
# vertex-sized arrays take about 230 bytes a vertex, so 2^19 of them peak near what 2^22 cells may.
ORACLE_VERTEX_BUDGET = 1 << 19
INCIDENCE_CELL_LIMIT = 25_000_000  # cells of the dense incidence matrix
MAX_DIMENSION = 64  # bitmask width cap
# Cells of a band block from which the oracle splits it by a pair exchange; a smaller block is factored
# whole, as its SVD costs less than the split's butterfly and second LAPACK call (BENCH_exchange_split.json).
SPLIT_CELLS = 2048
_LINE_ROWS = 4096  # rows per chunk of InducedGraph.edge_lines


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
        """Edge-list export, one "u v" line per edge, 0-based, u < v.

        The rows are read ``_LINE_ROWS`` at a time, so the Python ints and
        strings alive at once are those of one chunk, not of the graph.
        """
        for lo in range(0, self.vertex_count, _LINE_ROWS):
            hi = min(lo + _LINE_ROWS, self.vertex_count)
            bounds = self.indptr[lo : hi + 1]
            u = np.repeat(np.arange(lo, hi), np.diff(bounds))
            v = self.indices[bounds[0] : bounds[-1]]
            up = u < v
            yield from [f"{a} {b}" for a, b in zip(u[up].tolist(), v[up].tolist())]


def band_vertices(n: int, r1: int, r2: int) -> int:
    """The vertex count of the weight band [r1, r2] of {0,1}^n."""
    return sum(math.comb(n, i) for i in range(r1, r2 + 1))


def _trinomials(n: int) -> list[list[int]]:
    """``oracle_cells``' table of n: (1 + z + z^2)^(p - s) (1 + z)^(n % 2) for s = p down to 0, p = n // 2."""
    free = [[1, 1] if n % 2 else [1]]
    for _ in range(n // 2):
        free.append([a + b + c for a, b, c in zip([*free[-1], 0, 0], [0, *free[-1], 0], [0, 0, *free[-1]])])
    return free


def oracle_cells(n: int, r1: int, r2: int, _tables: dict | None = None) -> int:
    """The cells sum_S rows_S * cols_S of the oracle's blocks B_S of the band [r1, r2], in closed form.

    An orbit of the coordinate swaps (``oracle_spectra``) is a state of each
    of the p = n // 2 pairs, 00, 11 or mixed, and of the lone coordinate
    when n is odd; its weight counts 0, 2 or 1 per pair, plus the lone bit.
    The orbits whose mixed pairs contain a fixed set S of s pairs have S's
    pairs mixed and the rest free, so their weights are the powers of z in
    z^s (1 + z + z^2)^(p - s) (1 + z)^(n % 2).  B_S has E_s rows, those of
    even weight in [r1, r2], and O_s columns, those of odd weight there; and
    C(p, s) sets S have s pairs.  Those polynomials depend on n alone
    (``_trinomials``): the private ``_tables`` keeps them per n for one caller.
    """
    tables = {} if _tables is None else _tables
    p, cells = n // 2, 0
    for s, free in zip(range(p, -1, -1), tables.get(n) or tables.setdefault(n, _trinomials(n))):
        side = [0, 0]  # E_s, O_s
        for w in range(max(r1, s), min(r2, s + len(free) - 1) + 1):
            side[w % 2] += free[w - s]
        cells += math.comb(p, s) * side[0] * side[1]
    return cells


def check_budget(n: int, r1: int, r2: int, max_vertices: int | None = None, _tables: dict | None = None) -> int:
    """The oracle cells of the valid weight band [r1, r2], or given ``max_vertices``, its vertices.

    Raise InvalidParameterError on a band out of range, and
    BudgetExceededError on one over ORACLE_CELL_BUDGET cells of its blocks
    (``oracle_cells``, sharing its private ``_tables``) then
    ORACLE_VERTEX_BUDGET vertices, or given ``max_vertices``, over that many
    vertices.  No other code measures a band against a budget.
    """
    if n < 0 or n > MAX_DIMENSION:
        raise InvalidParameterError(f"dimension must be in [0, {MAX_DIMENSION}], got {n}")
    check_band(n, r1, r2)
    cells = None
    if max_vertices is None:
        cells = oracle_cells(n, r1, r2, _tables)
        if cells > ORACLE_CELL_BUDGET:
            raise BudgetExceededError(f"band ({n},{r1},{r2}) has {cells} oracle cells, "
                                      f"budget {ORACLE_CELL_BUDGET}")
        max_vertices = ORACLE_VERTEX_BUDGET
    vertices = band_vertices(n, r1, r2)
    if vertices > max_vertices:
        raise BudgetExceededError(f"band ({n},{r1},{r2}) has {vertices} vertices, budget {max_vertices}")
    return vertices if cells is None else cells


def _sphere_tables(n: int, r1: int, r2: int) -> tuple[list, list, list]:
    """Per weight w <= r2, the n-bit masks M(w) and the neighbour tables D(w), U(w) of sphere w.

    M(w) holds the masks of weight w, ascending (uint64).  Row j of D(w)
    holds the indices in M(w - 1) of the masks that clear one bit of
    M(w)[j], highest bit first; row j of U(w) the indices in M(w + 1) of
    the masks that set one of its clear bits, lowest bit first (int32).
    Clearing bit b lowers a mask by 2^b, so both rows ascend.

    All three follow the bit count k.  The k+1-bit masks of weight w are
    the k-bit ones followed by those of weight w - 1 with bit k set (Knuth,
    TAOCP 4A, 7.2.1.3), so an old index keeps its place and an index j of
    the second part moves to C(k, w) + j.  A mask of the first part has no
    bit k: its D row stays, and its U row gains the index of itself with
    bit k set.  A mask M(w - 1)[j] | 2^k of the second part has bit k set:
    clearing it gives j, the first entry of its D row, ahead of the moved
    D row of M(w - 1)[j], and its U row is the moved U row of M(w - 1)[j].
    Only the weights that a later step or the band [r1, r2] reads are
    made; U(r2) is never read.
    """
    masks = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * r2
    below = [np.zeros((1 if w == 0 else 0, w), dtype=np.int32) for w in range(r2 + 1)]
    above = [np.zeros((1, 0), dtype=np.int32)] + [np.zeros((0, 0), dtype=np.int32)] * r2
    for k in range(n):
        size = [math.comb(k, w) for w in range(r2 + 2)]  # C(k, w): the old sphere sizes
        bit = np.uint64(1 << k)
        rest = n - k - 1  # steps left after this one
        # descending, so that sphere w - 1 is still the old one when sphere w is made
        for w in range(min(k + 1, r2), max(r1 - rest, 1) - 1, -1):
            old, moved = size[w], size[w - 1]
            masks[w] = np.concatenate([masks[w], masks[w - 1] | bit])
            if w > r1 - rest:
                d = np.empty((old + moved, w), dtype=np.int32)
                d[:old] = below[w]
                d[old:, 0] = np.arange(moved)
                np.add(below[w - 1], moved, out=d[old:, 1:])
                below[w] = d
            if w < r2:
                u = np.empty((old + moved, k + 1 - w), dtype=np.int32)
                if old:
                    u[:old, :-1] = above[w]
                    u[:old, -1] = np.arange(size[w + 1], size[w + 1] + old)
                np.add(above[w - 1], size[w + 1], out=u[old:])
                above[w] = u
        if r1 - rest <= 0 < r2:  # the masks that set one bit of 0 are 1, 2, 4, ...: indices 0..k
            above[0] = np.arange(k + 1, dtype=np.int32)[None, :]
    return masks, below, above


def build_graph(n: int, r1: int, r2: int, max_vertices: int = DEFAULT_GRAPH_LIMIT) -> InducedGraph:
    """Build the induced subgraph on the weight band [r1, r2]: ``build_graphs`` of this band alone."""
    return build_graphs([(n, r1, r2)], max_vertices)[0]


def build_graphs(bands: list[tuple[int, int, int]], max_vertices: int = DEFAULT_GRAPH_LIMIT) -> list[InducedGraph]:
    """The induced subgraph of each band ``(n, r1, r2)``, in order, each band checked first (``check_budget``).

    ``indptr`` follows from the sphere sizes (``_graph``), and the masks and
    the neighbours' indices within the adjacent spheres from one recursion
    over the bit count (``_sphere_tables``), with no search; a row of sphere
    i is its D row then its U row, each shifted by the first index of its
    sphere, which is below, so every row ascends without a sort.  The
    recursion runs once, for the widest band (greatest n, then most
    weights).  A band within its weights is cut from its tables: the masks
    of fewer bits come first in M(w), so the band takes the first C(n, w)
    rows of M(w), D(w) and U(w), and the first n - w entries of a U row, as
    U lists the clear bits lowest first.  Any other band recurses alone.
    """
    for band in bands:
        check_budget(*band, max_vertices)
    widest = max(bands, key=lambda band: (band[0], band[2] - band[1]), default=None)
    shared = _sphere_tables(*widest) if bands else None
    return [_graph(n, r1, r2, *(shared if widest[1] <= r1 and r2 <= widest[2] else _sphere_tables(n, r1, r2)))
            for n, r1, r2 in bands]


def _graph(n: int, r1: int, r2: int, masks: list, below: list, above: list) -> InducedGraph:
    """The graph of the band [r1, r2] of {0,1}^n, cut from ``_sphere_tables`` of n or more bits and these weights.

    Every vertex of sphere i has i neighbours below (if i > r1) and n - i
    above (if i < r2).  The arrays are made read-only, and the edge count
    comes from the sphere sizes.
    """
    sizes = [math.comb(n, i) for i in range(r1, r2 + 1)]
    starts = np.cumsum([0] + sizes).tolist()
    sphere_start = dict(zip(range(r1, r2 + 1), starts))
    degrees = [(i if i > r1 else 0) + (n - i if i < r2 else 0) for i in range(r1, r2 + 1)]
    indptr = np.zeros(starts[-1] + 1, dtype=np.int64)
    np.cumsum(np.repeat(degrees, sizes), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, size in zip(range(r1, r2 + 1), sizes):
        down = i if i > r1 else 0
        first = sphere_start[i]
        rows = indices[indptr[first] : indptr[first + size]].reshape(size, -1)
        if down:
            np.add(below[i][:size], sphere_start[i - 1], out=rows[:, :down])
        if i < r2:
            np.add(above[i][:size, : n - i], sphere_start[i + 1], out=rows[:, down:])
    masks = np.concatenate([masks[i][:size] for i, size in zip(range(r1, r2 + 1), sizes)])
    for array in (masks, indptr, indices):
        array.setflags(write=False)
    edge_count = sum(math.comb(n, i) * i for i in range(r1 + 1, r2 + 1))
    return InducedGraph(n, r1, r2, masks, indptr, indices, sphere_start, edge_count)


def incidence_matrix(n: int, r: int) -> np.ndarray:
    """The C(n,r-1) x C(n,r) containment matrix between weights r-1 and r.

    Rows and columns follow the same ascending-mask order as build_graph, so
    the adjacency of the band (r-1, r) is exactly [[0, C], [C^T, 0]].  The
    matrix is dense, so its cells are budgeted: at most
    INCIDENCE_CELL_LIMIT, checked before anything is allocated.
    """
    if not 1 <= r <= n // 2:
        raise InvalidParameterError(f"need 1 <= r <= n//2, got r={r}, n={n}")
    rows = math.comb(n, r - 1)
    cols = math.comb(n, r)
    if rows * cols > INCIDENCE_CELL_LIMIT:
        raise BudgetExceededError(
            f"incidence ({n},{r}) needs {rows} x {cols} = {rows * cols} cells, "
            f"budget {INCIDENCE_CELL_LIMIT}"
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
    """Brute-force dense eigenvalues of a band adjacency matrix, with their residual bound."""

    eigenvalues: np.ndarray
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


def _group_order(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank): the entries by group, in array order within one, and each one's place in its group."""
    order = np.argsort(groups, kind="stable")
    rank = np.empty(len(groups), dtype=np.int64)
    rank[order] = np.arange(len(groups))
    sizes = np.bincount(groups)
    return order, rank - (np.cumsum(sizes) - sizes)[groups]


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + lengths[i] - 1 of every segment i, in order."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(len(out))
    return out


def _keys(graph: np.ndarray, values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Keys of (graph, value) pairs, in their order; distinct for values in the sorted ``table``."""
    return graph * (len(table) + 1) + np.searchsorted(table, values)


def _vertex_order_fault(g: InducedGraph) -> str:
    """'' if the graph's masks are every mask of its band in the module's order, else why not."""
    if len(g.masks) == band_vertices(g.n, g.r1, g.r2):
        spheres = _sphere_tables(g.n, g.r1, g.r2)[0][g.r1 : g.r2 + 1]
        if np.array_equal(g.masks, np.concatenate(spheres)):
            return ""
    return f"; its masks are not those of weight {g.r1}..{g.r2} in ascending weight, then value"


def _check_swap_invariance(graphs, graph, masks, mixed, flipped, src, dst) -> None:
    """Raise unless every swap (2j, 2j+1), j < n // 2, maps each graph's edges onto themselves.

    The image of a vertex is found by arithmetic on the module's vertex
    order.  A sphere lists its masks in ascending value, which is colex
    order, so a mask's place in its sphere is sum_i C(c_i, i) over its set
    bits c_1 < c_2 < ... (the combinatorial number system; Knuth, TAOCP 4A,
    7.2.1.3).  A swap moves the set bit of a pair that reads 01 from 2j up
    to 2j + 1, which adds C(2j, k), k the mask's set bits below 2j; on a
    pair that reads 10 it subtracts as much.  The mask found at that index
    must be the image, in the same graph; else the graph is at fault, and
    the message says so when its vertices break that order.  A vertex at
    fault maps onto itself in the edge test, so every graph flagged is at
    fault, and the first is named.
    """
    v_count = len(masks)
    index = np.arange(v_count)
    codes = np.sort(src * v_count + dst)
    below = np.zeros(v_count, dtype=np.int64)  # set bits below coordinate 2j
    for j in range(max(g.n // 2 for g in graphs)):
        bit = np.uint64(1 << 2 * j)
        step = np.array([math.comb(2 * j, k) for k in range(2 * j + 1)])[below]
        moved = index + np.where(mixed & bit, np.where(flipped & bit, -step, step), 0)
        np.clip(moved, 0, v_count - 1, out=moved)
        image = np.where(mixed & bit, masks ^ (bit | bit << _ONE), masks)
        bad = (masks[moved] != image) | (graph[moved] != graph)
        moved[bad] = index[bad]
        wrong = np.sort(moved[src] * v_count + moved[dst]) != codes
        bad = np.r_[graph[bad], graph[codes[wrong] // v_count]]
        if bad.size:
            g = graphs[bad.min()]
            raise InvalidParameterError(
                f"the graph ({g.n},{g.r1},{g.r2}) is not invariant under the swap of coordinates "
                f"{2 * j} and {2 * j + 1}{_vertex_order_fault(g)}"
            )
        below += masks & bit != 0
        below += masks & bit << _ONE != 0


def _exchange(sets: np.ndarray, low_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_pair, b_pair, shift): the exchange of the two lowest pairs a < b outside each character, else none.

    A character S is a set of pairs, by the low bit of each; ``low_bits``
    holds the low bits of all of the graph's pairs.  a_pair and b_pair are
    the bits of pairs a and b, and shift is 2(b - a); all three are 0 where
    fewer than two pairs lie outside S.
    """
    out = low_bits & ~sets
    a_bit = out & (~out + _ONE)
    out ^= a_bit
    b_bit = out & (~out + _ONE)
    a_bit[b_bit == 0] = 0
    # 2(b - a) from the binary exponents of the powers of two, exact in float
    shift = (np.frexp(b_bit.astype(float))[1] - np.frexp(a_bit.astype(float))[1]).astype(np.uint64)
    return a_bit * np.uint64(3), b_bit * np.uint64(3), shift


def _exchanged(masks: np.ndarray, a_pair: np.ndarray, b_pair: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The masks with the bits of pairs a < b exchanged, each pair's two bits kept in order (``_exchange``)."""
    return masks & ~(a_pair | b_pair) | (masks & a_pair) << shift | (masks & b_pair) >> shift


def _exchange_fault(g: InducedGraph, char) -> str:
    """The error for a graph that the exchange of ``char``'s two lowest outside pairs (``_exchange``) breaks."""
    a, b = [j for j in range(g.n // 2) if not int(char) >> 2 * j & 1][:2]
    return f"the graph ({g.n},{g.r1},{g.r2}) is not invariant under the exchange of coordinate pairs {a} and {b}"


def _distinct(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique, group): the first of each set of byte-equal blocks, ascending, and each block's set.

    ``blocks[unique][group]`` has the bytes of ``blocks``.
    """
    seen: dict[bytes, int] = {}
    unique, group = [], []
    data, size = blocks.tobytes(), blocks[0].nbytes  # one copy of the bytes, cut block by block
    for i in range(len(blocks)):
        key = data[i * size : (i + 1) * size]
        if key not in seen:
            seen[key] = len(unique)
            unique.append(i)
        group.append(seen[key])
    return np.array(unique), np.array(group)


def _residual(b: np.ndarray, u: np.ndarray, s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Per block of the stack b = u diag(s) vt, the largest of |B v_i - s_i u_i| and |B^T u_i - s_i v_i|.

    Each difference is formed and squared in place, one at a time, and vt
    is scaled by s in place, so one difference-sized array is alive at a
    time; the root is taken of each block's largest sum alone, and the bits
    are those of ``np.linalg.norm`` of the plain expressions.
    """
    x = b @ vt.transpose(0, 2, 1)
    x -= u * s[:, None, :]
    x *= x
    left = x.sum(axis=1)
    del x
    x = b.transpose(0, 2, 1) @ u
    vt *= s[:, :, None]
    x -= vt.transpose(0, 2, 1)
    x *= x
    return np.sqrt(np.maximum(left, x.sum(axis=1)).max(axis=1))


def _split(b: np.ndarray, fixed_rows: int, fixed_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(B+, B-): the exchange halves of each block of the stack b, views of b turned in place.

    Each side of a block lists the orbits that sigma fixes, F, then the
    first orbit of each moved pair, X, then their partners in the same
    order, Y.  The basis e_F, (e_X + e_Y)/sqrt 2, (e_X - e_Y)/sqrt 2 of
    each side is orthonormal and its last part spans the sigma-odd vectors;
    one butterfly on the rows and one on the columns turn b into R^T B C in
    it.  B+ and B- are its even and odd corners; the cross terms between
    them are zero on a sigma-invariant block, which ``_band_blocks`` checks.
    """
    _, r, c = b.shape
    even_rows, even_cols = (r + fixed_rows) // 2, (c + fixed_cols) // 2  # F and X
    half = math.sqrt(0.5)
    for x, y in [(b[:, fixed_rows:even_rows], b[:, even_rows:]), (b[:, :, fixed_cols:even_cols], b[:, :, even_cols:])]:
        odd = x - y
        odd *= half
        x += y
        x *= half
        y[...] = odd
    return b[:, :even_rows, :even_cols], b[:, even_rows:, even_cols:]


def _band_blocks(graphs: list[InducedGraph], bands: list[tuple[InducedGraph, int, int]]):
    """The graphs' blocks B_S, flat, and where each band's blocks lie in them (``oracle_spectra``).

    Returns (graph_flat, rows, cols, row_cell, col_cell, fixed_rows,
    fixed_cols, block_band, vertices).  The band blocks are sorted by shape
    and split, (rows, cols, fixed_rows, fixed_cols); block k belongs to band
    block_band[k].  Its row i starts at graph_flat[row_cell[sum(rows[:k]) +
    i]], and column j is the offset col_cell[sum(cols[:k]) + j] from there.
    A block to split lists each side as the fixed_rows (fixed_cols) orbits
    its exchange fixes, the first of each moved pair, then their partners;
    any other block has fixed_rows = rows, fixed_cols = cols and orbit order.
    vertices[b] is band b's count of (orbit, character) pairs.  Each graph
    block is checked against its exchange here.  Every vertex-sized array
    of the graphs dies before any block is cut.
    """
    sizes = [g.vertex_count for g in graphs]
    first = np.cumsum([0] + sizes)
    graph = np.repeat(np.arange(len(graphs)), sizes)  # of each vertex
    masks = np.concatenate([g.masks for g in graphs])
    low_bits = np.array([sum(1 << 2 * j for j in range(g.n // 2)) for g in graphs], dtype=np.uint64)
    low, high = masks & low_bits[graph], (masks >> _ONE) & low_bits[graph]
    mixed, flipped = low ^ high, high & ~low  # both on the low bit of each pair
    ones = _popcount(masks)
    odd = (ones & 1).astype(bool)

    # directed edges out of the even-weight vertices
    src = np.repeat(np.arange(len(masks)), np.concatenate([np.diff(g.indptr) for g in graphs]))
    dst = np.concatenate([g.indices + start for g, start in zip(graphs, first.tolist())])
    even_src = ~odd[src]
    src, dst = src[even_src], dst[even_src]

    _check_swap_invariance(graphs, graph, masks, mixed, flipped, src, dst)
    table = np.sort(masks)
    reps = _keys(graph, masks ^ flipped ^ (flipped << _ONE), table)  # swaps keep the masks
    reps, member, orbit = np.unique(reps, return_index=True, return_inverse=True)
    orbit_mixed, orbit_odd, orbit_graph = mixed[member], odd[member], graph[member]

    # (orbit, character) pairs: their count is V; each character of a graph is one block of it
    pair_orbit, pair_char = _submasks(orbit_mixed)
    char_set = np.sort(pair_char)
    chars, pair_block = np.unique(
        _keys(orbit_graph[pair_orbit], pair_char, char_set), return_inverse=True
    )
    pair_odd = orbit_odd[pair_orbit]
    # each pair's row (even orbit) or column (odd orbit) in its block: the pairs come in orbit
    # order, so that is its rank among the pairs of its block and side
    by_side, pair_local = _group_order(pair_block * 2 + pair_odd)
    graph_cols = np.bincount(pair_block[pair_odd], minlength=len(chars))
    graph_cells = np.bincount(pair_block[~pair_odd], minlength=len(chars)) * graph_cols
    # the blocks lie row by row in one array: where the row of each even pair starts
    row_start = (np.cumsum(graph_cells) - graph_cells)[pair_block] + pair_local * graph_cols[pair_block]
    counts = np.left_shift(1, _popcount(orbit_mixed))
    pair_start = np.cumsum(counts) - counts

    def pair_of(orbits: np.ndarray, characters: np.ndarray) -> np.ndarray:
        """Index of each pair (orbit, character): the orbit's first pair plus the character's rank."""
        return pair_start[orbits] + _submask_rank(orbit_mixed[orbits], characters)

    # each pair's partner (sigma O, S) under its character's exchange sigma, found by the image of O's
    # representative; the graph is at fault if that image is none of its orbits' representatives
    pair_graph = orbit_graph[pair_orbit]
    rep = (masks ^ flipped ^ (flipped << _ONE))[member][pair_orbit]
    key_of = len(char_set) + 1  # a block key is its graph times key_of plus its character's place in char_set
    image = _exchanged(rep, *(x[pair_block] for x in _exchange(char_set[chars % key_of], low_bits[chars // key_of])))
    go = np.flatnonzero(image != rep)  # the pairs sigma moves
    image, graph_of = image[go], pair_graph[go]
    at = np.minimum(np.searchsorted(table, image), len(table) - 1)
    key = graph_of * (len(table) + 1) + at
    image_orbit = np.minimum(np.searchsorted(reps, key), len(reps) - 1)
    lost = (table[at] != image) | (reps[image_orbit] != key)
    if lost.any():  # pairs come in orbit order, so graph by graph: the first at fault is the lowest graph's
        i = go[np.argmax(lost)]
        raise InvalidParameterError(_exchange_fault(graphs[pair_graph[i]], pair_char[i]))
    partner = np.arange(len(pair_orbit))
    partner[go] = pair_of(image_orbit, pair_char[go])
    pair_moved = np.sign(pair_local[partner] - pair_local) % 3  # 0 fixed, 1 first of a moved pair, 2 its partner
    del pair_graph, rep, image, go, graph_of, at, key, image_orbit, lost

    # (edge, character) pairs from the representatives of the even orbits
    from_rep = flipped[src] == 0
    x, y = src[from_rep], dst[from_rep]
    edge, char = _submasks(mixed[x] & mixed[y])
    x, y = x[edge], y[edge]
    sign = 1.0 - 2.0 * (_popcount(char & flipped[y]) & 1)
    weight = sign * np.exp2((_popcount(mixed[x]) - _popcount(mixed[y])) / 2.0)
    at_x, at_y = pair_of(orbit[x], char), pair_of(orbit[y], char)
    del src, dst, x, y, edge, char, sign  # each edge array lives only until its last use
    cell = row_start[at_x] + pair_local[at_y]
    mirror = row_start[partner[at_x]] + pair_local[partner[at_y]]  # the cell of (sigma O, sigma O')
    block = pair_block[at_x]
    del at_x, at_y
    graph_flat = np.bincount(cell, weights=weight, minlength=int(graph_cells.sum()))
    del weight  # the blocks hold all they said
    # each graph block B_S against B_S[pi_r][:, pi_c], to 1e-12 of its largest entry: either is nonzero
    # only at the cell or the mirror of some (edge, character) pair, so comparing the two cells of each
    # pair compares every cell.  Every band block is cut from a block checked here, split or not
    entry = graph_flat[cell]
    gap = np.abs(graph_flat[mirror] - entry)
    largest = np.zeros(len(chars))
    np.maximum.at(largest, block, np.abs(entry))
    bad = gap > 1e-12 * largest[block]
    if bad.any():  # blocks come graph by graph: the first at fault is the lowest graph's
        key = int(chars[block[bad].min()])
        raise InvalidParameterError(_exchange_fault(graphs[key // key_of], char_set[key % key_of]))
    pair_weight = ones[member][pair_orbit].astype(np.int8)  # at most 64
    graph_pairs = np.bincount(orbit_graph[pair_orbit], minlength=len(graphs))
    # the vertices' and orbits' arrays die here, before any block is cut
    del cell, mirror, block, entry, gap, bad, masks, graph, low, high, mixed, flipped, ones, odd, table, reps
    del member, orbit, orbit_mixed, orbit_odd, orbit_graph, pair_orbit, pair_char, pair_start, pair_of

    # each band's pairs, all bands in one pass with no sort: its graph's pairs by block and side, in orbit
    # order (``by_side``), kept where their weight is in r1..r2; so a band's blocks come out whole, rows first
    which = {g: i for i, g in enumerate(graphs)}
    band_graph, lo, hi = (np.array(x) for x in zip(*[(which[g], r1, r2) for g, r1, r2 in bands]))
    size = graph_pairs[band_graph]
    pairs = by_side[_segments((np.cumsum(graph_pairs) - graph_pairs)[band_graph], size)]
    pair_ones, band = pair_weight[pairs], np.repeat(np.arange(len(bands), dtype=np.int32), size)
    keep = (pair_ones >= lo.astype(np.int8)[band]) & (pair_ones <= hi.astype(np.int8)[band])
    pairs, band = pairs[keep], band[keep]
    del pair_ones, keep
    vertices = np.bincount(band, minlength=len(bands)).tolist()
    # the band's blocks: one per (band, character of its pairs)
    key = band * np.int64(len(chars)) + pair_block[pairs]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    block = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(key)]))
    del key
    odd = pair_odd[pairs]
    rows = np.bincount(block[~odd], minlength=len(first))
    cols = np.bincount(block[odd], minlength=len(first))
    # each side of a block to split lists the pairs sigma fixes, then the first of each moved pair, then
    # their partners in the same order: its pairs sorted by run, then by the local rank of the pair's first;
    # a block of fewer than SPLIT_CELLS cells keeps its orbit order and is not split
    fixed_rows, fixed_cols = rows.copy(), cols.copy()  # a block left whole counts every pair as fixed
    split = rows * cols >= SPLIT_CELLS
    cut = np.flatnonzero(split[block])  # the pairs of the blocks to split, side by side
    if cut.size:
        run = (2 * block[cut] + odd[cut]) * 3 + pair_moved[pairs[cut]]  # (side, run) of each pair
        runs = np.bincount(run, minlength=6 * len(first))
        fixed_rows[split], fixed_cols[split] = runs[0::6][split], runs[3::6][split]
        lead = np.minimum(pair_local[pairs[cut]], pair_local[partner[pairs[cut]]])
        pairs[cut] = pairs[cut[np.argsort(run * (len(pair_local) + 1) + lead, kind="stable")]]
        del cut, run, runs, lead
    by_shape = np.lexsort((fixed_cols, fixed_rows, cols, rows))  # blocks of one shape and split are adjacent
    rows, cols, first = rows[by_shape], cols[by_shape], first[by_shape]
    fixed_rows, fixed_cols = fixed_rows[by_shape], fixed_cols[by_shape]
    block_band = band[first]
    # a band block's rows and columns, in order, are its pairs of each side, block by block
    by_block = pairs[_segments(np.r_[first, first + rows], np.r_[rows, cols])]
    row_cell, col_cell = row_start[by_block[: rows.sum()]], pair_local[by_block[rows.sum() :]]
    return graph_flat, rows, cols, row_cell, col_cell, fixed_rows, fixed_cols, block_band, vertices


def oracle_spectrum(g: InducedGraph, dense_limit: int | None = None) -> OracleSpectrum:
    """All eigenvalues (ascending) of the adjacency, with residuals: ``oracle_spectra`` of g's whole band."""
    return oracle_spectra([(g, g.r1, g.r2)], dense_limit)[0]


def oracle_spectra(
    bands: list[tuple[InducedGraph, int, int]], dense_limit: int | None = None, _tables: dict | None = None
) -> list[OracleSpectrum]:
    """The oracle spectrum of each band ``(g, r1, r2)``, the weights r1..r2 of a built graph g.

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

    A block of SPLIT_CELLS cells or more is split once more.  Let a < b be
    the two lowest pairs outside S and sigma = (2a 2b)(2a+1 2b+1) the
    exchange of the two; with fewer than two pairs outside S there is no
    split.  (Two pairs inside S would give nothing: every orbit of B_S is
    mixed on both, so sigma fixes each.)  sigma keeps each pair's reading,
    so sigma b_O = b_(sigma O) with no sign: on a graph that sigma keeps it
    permutes the rows and the columns of B_S and commutes with it.  Each
    side of the block is listed as the orbits sigma fixes, then the first
    (in orbit order) of each moved pair, then their partners in the same
    order; in the basis e_f, (e_x + e_(sigma x))/sqrt 2 and
    (e_x - e_(sigma x))/sqrt 2 of each side B_S is orthogonally equivalent
    to B+ (+) B-, which ``_split`` forms in place.  A block's values are
    then +-s of both halves and abs(r+ - c+) + abs(r- - c-) structural zeros;
    its residual is the larger of its halves'.  A block under SPLIT_CELLS
    keeps its orbit order and is factored whole.  Whether a block is split,
    and how, depends on its shape and S alone, so a band cut from a hull
    keeps the bytes of its own graph's halves, and byte-equal blocks of one
    |S|, related by an order-keeping relabelling of the pairs that carries
    (a, b) along, have byte-equal halves.

    An empty list gives an empty list.  Each graph is checked against the
    budget before anything is built (``check_budget``: its block cells and
    vertices, or given ``dense_limit`` its vertices, with the private
    ``_tables`` of ``oracle_cells``), as a caller may hand in any graph.
    The distinct graphs are one disjoint union, each vertex with its own
    graph's pairs; orbits and characters are keyed by graph, and each
    graph's blocks are built once.  The swaps keep weights, so a
    band's B_S is its graph's cut to the orbits of weight r1..r2, in orbit
    order: a cell sums the same edges in the same order as in the band's own
    graph, so the cut block has the bytes of the block of ``build_graph(n, r1, r2)``.

    The V (orbit, character) pairs are listed orbit by orbit, the characters
    of O in ``_submasks``' order, so the pair (O, S) is O's first pair plus
    the rank of S among the submasks of M(O) (``_submask_rank``, at most
    n // 2 bit steps).  Each pair's block, and its row or column there, is
    worked out once; the (edge, character) pairs then find their block
    entries with no search.

    Each B = U diag(s) V^T, a whole block or a half, gives the eigenvalues
    +-s_i and abs(rows - columns) zeros; the blocks of one shape and split,
    over all bands, are cut as one stack, and each half of the stack shares
    one stacked thin SVD.  Matrices of a stack whose float64 entries are
    byte-for-byte equal are factored once (``_distinct``; a stack of one
    skips it), and the first of each set stands for all: LAPACK factors each
    matrix of a stack on its own, so every block keeps the bits of its own
    factorization.  The SVD and the residual products run on the distinct
    matrices only; at (12, 0, 6), 8 of the 70 that 63 blocks give, the
    largest 167 x 121 (253 x 182 unsplit).  The residual bound is the
    largest of |B v_i - s_i u_i| and |B^T u_i - s_i v_i| over every
    matrix's singular triplets; the bases are orthonormal, so it bounds the
    residual of each eigenpair (+-s_i, [u_i; +-v_i]/sqrt(2)) of A they give,
    up to the cross terms of a split, which the exchange check below bounds.
    The documented tolerance is 1e-10 times the band's vertex count; a
    residual above it is an internal error.

    Three self-checks keep this a check of each graph itself.  Every tau_j
    must map its edge set onto itself (else InvalidParameterError, naming
    the graph; the images are found from the module's vertex order,
    ``_check_swap_invariance``).  Each graph block B_S must equal
    B_S[pi_r][:, pi_c], pi the permutations of its rows and columns by its
    exchange, to within 1e-12 of its largest entry, whether or not its band
    blocks are split, and the image of each orbit's representative must be
    one of the graph's (else InvalidParameterError, naming the graph and the
    two pairs): so the oracle's inputs are the graphs that the swaps and
    these exchanges keep, as the bands and the custom graphs of the tests,
    which every coordinate permutation keeps, are.  And the squared
    Frobenius norms of a band's blocks, half the sum of the squares of the
    eigenvalues it returns, must add up to its edge count, half of tr A^2,
    to within 1e-12 times that count (else ArithmeticError); the count is
    its graph's ``edge_count`` less the edges cut away, from the sphere
    sizes.
    """
    if not bands:
        return []
    graphs = list(dict.fromkeys(g for g, _, _ in bands))  # each graph once, in order of first use
    for g in graphs:
        check_budget(g.n, g.r1, g.r2, dense_limit, _tables)
    for g, r1, r2 in bands:
        if not g.r1 <= r1 <= r2 <= g.r2:
            raise InvalidParameterError(
                f"band [{r1}, {r2}] outside the graph's band [{g.r1}, {g.r2}]"
            )
    graph_flat, rows, cols, row_cell, col_cell, fixed_rows, fixed_cols, block_band, vertices = _band_blocks(
        graphs, bands)
    row_first, col_first = (np.cumsum(rows) - rows).tolist(), (np.cumsum(cols) - cols).tolist()
    split = np.stack([rows, cols, fixed_rows, fixed_cols])
    bounds = [0, *(np.flatnonzero((split[:, 1:] != split[:, :-1]).any(axis=0)) + 1).tolist(), len(rows)]
    sizes = rows + cols
    value_first = (np.cumsum(sizes) - sizes).tolist()
    w = np.zeros(int(sizes.sum()))  # the values, block by block: -s of each half, the structural zeros, s of each
    residual = np.zeros(len(rows))  # of each block
    for start, stop, (r, c, fr, fc) in zip(bounds[:-1], bounds[1:], split[:, bounds[:-1]].T.tolist()):
        count = stop - start
        if min(r, c) == 0:
            continue
        # cut from the graph's blocks: cell (i, j) of a band's block is its graph's at row i, column j
        at_row = row_cell[row_first[start] : row_first[start] + count * r].reshape(count, r, 1)
        at_col = col_cell[col_first[start] : col_first[start] + count * c].reshape(count, 1, c)
        b = graph_flat.take(at_row + at_col)
        halves = _split(b, fr, fc) if fr < r or fc < c else (b,)
        del b
        at = w[value_first[start] : value_first[start] + count * (r + c)].reshape(count, r + c)
        low, high = 0, r + c  # where the next half's -s and s go
        for half in halves:
            k = min(half.shape[1:])
            if k == 0:
                continue
            # byte-equal halves share one factorization: LAPACK factors each matrix of a stack on its own
            group = slice(None)  # a lone half stands for itself
            if count > 1:
                unique, group = _distinct(half)
                if len(unique) < count:
                    half = half[unique]
            u, s, vt = np.linalg.svd(half, full_matrices=False)
            np.maximum(residual[start:stop], _residual(half, u, s, vt)[group], out=residual[start:stop])
            s = s[group]
            np.negative(s, out=at[:, low : low + k])
            at[:, high - k : high] = s
            low, high = low + k, high - k
    largest = np.zeros(len(bands))
    np.maximum.at(largest, block_band, residual)
    # each band's values, its blocks' in block order, band after band, then sorted in place
    by_band = np.argsort(block_band, kind="stable")
    w = w[_segments(np.array(value_first)[by_band], sizes[by_band])]
    ends = np.cumsum([0, *vertices]).tolist()
    norms = np.add.reduceat(w * w, ends[:-1]) / 2  # half the sum of lambda^2: sum_S |B_S|_F^2
    # upto[g][j]: the edges of g's weights g.r1 .. g.r1 + j, so a band's cut-away edges are two differences
    upto = {g: [0, *accumulate(math.comb(g.n, i) * i for i in range(g.r1 + 1, g.r2 + 1))] for g in graphs}
    spectra = []
    for (g, r1, r2), first, end, norm, bound in zip(bands, ends, ends[1:], norms.tolist(), largest.tolist()):
        edges = g.edge_count - upto[g][r1 - g.r1] - upto[g][-1] + upto[g][r2 - g.r1]
        limit = 1e-10 * max(1, end - first)
        if bound > limit:
            raise ArithmeticError(f"internal-error: oracle residual {bound:.3e} above tolerance {limit:.3e}")
        if abs(norm - edges) > 1e-12 * edges:
            raise ArithmeticError(f"internal-error: block norms add up to {norm!r}, not {edges} edges")
        w[first:end].sort()
        spectra.append(OracleSpectrum(w[first:end], bound, limit))
    return spectra
