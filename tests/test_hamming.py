import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import paper_checks as pc
from ballspec import hamming as hm
from ballspec.errors import BudgetExceededError, InvalidParameterError
from helpers import (
    band_cases, cached_eigh, cached_graph, cached_oracle, neighbour_lists, with_neighbour_lists,
)


def test_ball_radius_one_is_a_star():
    g = hm.build_graph(4, 0, 1)
    assert g.vertex_count == 5 and g.edge_count == 4
    assert g.degree(0) == 4


def test_ball_4_0_2_counts():
    g = hm.build_graph(4, 0, 2)
    assert g.vertex_count == 11 and g.edge_count == 16


def test_band_4_1_2_counts():
    g = hm.build_graph(4, 1, 2)
    assert g.vertex_count == 10 and g.edge_count == 12


def test_vertex_count_and_order():
    for n, r1, r2 in band_cases(8):
        g = cached_graph(n, r1, r2)
        assert g.vertex_count == sum(math.comb(n, i) for i in range(r1, r2 + 1))
        # ascending weight, then ascending mask value
        keys = [(m.bit_count(), m) for m in g.masks.tolist()]
        assert keys == sorted(keys)


def test_edges_connect_adjacent_weights():
    g = cached_graph(6, 1, 3)
    masks = g.masks.tolist()
    for u, nbrs in enumerate(neighbour_lists(g)):
        for v in nbrs:
            x, y = masks[u], masks[v]
            assert (x ^ y).bit_count() == 1
            assert abs(x.bit_count() - y.bit_count()) == 1


def test_degrees():
    n, r1, r2 = 8, 1, 4
    g = cached_graph(n, r1, r2)
    for v in range(g.vertex_count):
        i = g.weight_of(v)
        if r1 < i < r2:
            assert g.degree(v) == n
        elif i == r2:
            assert g.degree(v) == i  # only down-neighbors
        else:
            assert g.degree(v) == n - i  # only up-neighbors
    g0 = cached_graph(6, 0, 2)
    assert g0.degree(0) == 6


def build_graph_tuples(n, r1, r2):
    """The band graph as the tuple builder made it: the reference for the CSR arrays.

    Returns the masks, one sorted tuple of neighbours per vertex, the sphere
    starts and the edge count, from Gosper's masks and a dict from mask to index.
    """
    masks, sphere_start = [], {}
    for i in range(r1, r2 + 1):
        sphere_start[i] = len(masks)
        masks.extend(hm.weight_masks(n, i))
    index = {m: v for v, m in enumerate(masks)}
    adjacency = [[] for _ in masks]
    edges = 0
    for v in range(sphere_start.get(r1 + 1, len(masks)), len(masks)):
        m = mask = masks[v]
        while m:
            bit = m & -m
            u = index[mask ^ bit]
            adjacency[u].append(v)
            adjacency[v].append(u)
            edges += 1
            m ^= bit
    return masks, tuple(tuple(sorted(a)) for a in adjacency), sphere_start, edges


# (0, 0, 0) takes no step of the recursion; the bands at n = 63, 64 use bit 63; (20, 0, 4) and
# (14, 0, 7) have more than 4,096 vertices, so their export crosses a chunk of rows, and in
# (14, 0, 7) rows on both sides of the boundary have neighbours above
@pytest.mark.parametrize(
    "n,r1,r2",
    [*band_cases(10), (0, 0, 0), (12, 4, 6), (14, 0, 7), (18, 0, 5), (20, 0, 4),
     (63, 0, 2), (64, 0, 2), (64, 1, 2), (64, 2, 2)],
)
def test_csr_arrays_are_the_tuple_builders_graph(n, r1, r2):
    g = cached_graph(n, r1, r2)
    masks, adjacency, sphere_start, edges = build_graph_tuples(n, r1, r2)
    assert g.masks.dtype == np.uint64 and g.masks.tolist() == masks
    assert g.indptr.tolist() == np.cumsum([0] + [len(nbrs) for nbrs in adjacency]).tolist()
    assert g.indices.tolist() == [v for nbrs in adjacency for v in nbrs]
    assert g.sphere_start == sphere_start and g.edge_count == edges
    assert not (g.masks.flags.writeable or g.indptr.flags.writeable or g.indices.flags.writeable)
    # the neighbour sums in the same order, so the same bits, and the same export
    f = np.random.default_rng(n * 100 + r1 * 10 + r2).standard_normal(g.vertex_count)
    reference = np.array([f[list(nbrs)].sum() if nbrs else 0.0 for nbrs in adjacency])
    assert np.array_equal(g.apply_adjacency(f), reference)
    assert list(g.edge_lines()) == [f"{u} {v}" for u, nbrs in enumerate(adjacency) for v in nbrs if u < v]


@pytest.mark.parametrize("n,r1,r2", [(18, 0, 5), (20, 0, 6), (64, 0, 3)])
def test_build_graph_peak_memory_stays_near_its_result(n, r1, r2):
    # the recursion keeps int32 tables of one sphere each and frees each old table as its
    # successor is made; the final tables are added into indices in place (measured 1.50x on all three)
    hm.build_graph(n, r1, r2)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        g = hm.build_graph(n, r1, r2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (g.masks.nbytes + g.indptr.nbytes + g.indices.nbytes)
    # one bit away and strictly ascending: a row of its degree is all its neighbours in the band
    rows = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
    assert (hm._popcount(g.masks[rows] ^ g.masks[g.indices]) == 1).all()
    assert ((np.diff(g.indices) > 0) | (np.diff(rows) > 0)).all()


def test_budget_exceeded():
    vertices = sum(math.comb(40, i) for i in range(21))
    with pytest.raises(BudgetExceededError, match=rf"band \(40,0,20\) has {vertices} vertices, budget 1000$"):
        hm.build_graph(40, 0, 20, max_vertices=1000)


@pytest.mark.parametrize("n,r1,r2", [(4, 2, 1), (4, 0, 3), (-1, 0, 0), (65, 0, 1)])
def test_invalid_band(n, r1, r2):
    with pytest.raises(InvalidParameterError):
        hm.build_graph(n, r1, r2)


def sub_bands(r1, r2):
    return [(a, b) for a in range(r1, r2 + 1) for b in range(a, r2 + 1)]


@pytest.mark.parametrize("n,r1,r2", [*((n, 0, n // 2) for n in range(13)), (20, 2, 6), (64, 0, 2)])
def test_band_of_a_graph_is_the_built_graph_of_every_sub_band(n, r1, r2):
    # the oracle of a weight range of a graph has the bits of the oracle of the range's own graph: the
    # blocks cut from the graph's are byte-equal to the range's; (64, 0, 2) has masks that use all 64
    # bits, and (20, 2, 6), with 60,439 vertices, serves its sub-bands of at most 5,000 vertices
    g = hm.build_graph(n, r1, r2)
    bands = [(a, b) for a, b in sub_bands(r1, r2)
             if sum(math.comb(n, i) for i in range(a, b + 1)) <= 5000]
    cut = hm.oracle_spectra([(g, a, b) for a, b in bands], dense_limit=g.vertex_count)
    assert len(cut) == len(bands) >= 1
    for (a, b), got in zip(bands, cut):
        want = hm.oracle_spectrum(hm.build_graph(n, a, b))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), (a, b)
        assert (got.residual_bound, got.tolerance) == (want.residual_bound, want.tolerance), (a, b)


@pytest.mark.parametrize("r1,r2", [(1, 4), (0, 3), (5, 6), (4, 3), (-1, 2)])
def test_band_outside_the_graph_is_rejected(r1, r2):
    g = hm.build_graph(10, 1, 3)
    with pytest.raises(InvalidParameterError, match="outside"):
        hm.oracle_spectra([(g, 1, 3), (g, r1, r2)])


def test_incidence_4_1_is_all_ones_row():
    mat = hm.incidence_matrix(4, 1)
    assert mat.shape == (1, 4)
    assert (mat == 1.0).all()


def test_incidence_4_2_row_column_sums():
    mat = hm.incidence_matrix(4, 2)
    assert mat.shape == (4, 6)
    assert (mat.sum(axis=0) == 2).all()
    assert (mat.sum(axis=1) == 3).all()


def test_incidence_above_the_graph_dimension_cap():
    # n = 100 is past the 64-bit cap of build_graph; incidence_matrix must not need it
    mat = hm.incidence_matrix(100, 2)
    assert mat.shape == (100, 4950)
    assert (mat.sum(axis=0) == 2).all()
    assert (mat.sum(axis=1) == 99).all()


def test_incidence_is_the_bipartite_block():
    for n, r in [(4, 2), (5, 2), (6, 3), (7, 2)]:
        mat = hm.incidence_matrix(n, r)
        g = cached_graph(n, r - 1, r)
        a = g.dense_adjacency()
        rows = math.comb(n, r - 1)
        assert (a[:rows, rows:] == mat).all()
        assert (a[rows:, :rows] == mat.T).all()
        assert not a[:rows, :rows].any() and not a[rows:, rows:].any()


def test_incidence_full_rank():
    for n in range(2, 11):
        for r in range(1, n // 2 + 1):
            mat = hm.incidence_matrix(n, r)
            assert np.linalg.matrix_rank(mat) == math.comb(n, r - 1)


def test_oracle_star_spectrum():
    orc = cached_oracle(4, 0, 1)
    assert np.allclose(orc.eigenvalues, [-2, 0, 0, 0, 2], atol=1e-10)


def test_oracle_single_vertex():
    orc = cached_oracle(5, 0, 0)
    assert orc.eigenvalues.shape == (1,) and orc.eigenvalues[0] == 0.0


def test_oracle_ball_4_0_2():
    s2, s10 = math.sqrt(2), math.sqrt(10)
    expected = sorted([-s10, -s2, -s2, -s2, 0, 0, 0, s2, s2, s2, s10])
    assert np.allclose(cached_oracle(4, 0, 2).eigenvalues, expected, atol=1e-10)


def test_oracle_budget():
    g = cached_graph(8, 0, 4)
    with pytest.raises(BudgetExceededError):
        hm.oracle_spectrum(g, dense_limit=10)


def test_oracle_trace_and_edge_sum():
    for n, r1, r2 in band_cases(8):
        g = cached_graph(n, r1, r2)
        orc = cached_oracle(n, r1, r2)
        assert abs(orc.eigenvalues.sum()) <= orc.tolerance * g.vertex_count
        assert (orc.eigenvalues**2).sum() == pytest.approx(2 * g.edge_count, abs=1e-7)
        assert orc.residual_bound <= orc.tolerance


def _parity_sizes(g):
    odd = sum(m.bit_count() % 2 for m in g.masks.tolist())
    return g.vertex_count - odd, odd


def _check_oracle_against_eigh(g):
    a = g.dense_adjacency()
    v = g.vertex_count
    orc = hm.oracle_spectrum(g)
    assert np.abs(orc.eigenvalues - np.linalg.eigvalsh(a)).max() <= 1e-12 * v
    assert 0.0 <= orc.residual_bound <= orc.tolerance
    return orc.eigenvalues


@pytest.mark.parametrize("n,r1,r2", list(band_cases(9)))
def test_oracle_matches_eigh_on_every_small_band(n, r1, r2):
    _check_oracle_against_eigh(cached_graph(n, r1, r2))


@pytest.mark.parametrize("n,r1,r2", [
    (64, 0, 1),  # the mask-width cap: 32 coordinate pairs
    (63, 0, 2),  # 31 pairs and an unpaired top coordinate
    (20, 0, 2),
    (11, 0, 5),  # many characters, with blocks of many shapes
    (12, 0, 6),  # the workload's largest band: its large blocks are split by a pair exchange
])
def test_oracle_matches_eigh_with_many_pairs(n, r1, r2):
    _check_oracle_against_eigh(cached_graph(n, r1, r2))


def test_oracle_signs_on_edges_that_flip_three_bits():
    # On cube edges every block entry has sign +1; a swap-invariant graph
    # whose extra edges join disjoint masks of weights 1 and 2 (0b0010 to
    # 0b0101, say) needs the character signs (-1)^{|S & F(y)|}.
    g = cached_graph(4, 0, 2)
    masks = g.masks.tolist()
    far = {
        (u, v) for u, x in enumerate(masks) for v, y in enumerate(masks)
        if {x.bit_count(), y.bit_count()} == {1, 2} and not x & y
    }
    adjacency = [
        sorted(set(nbrs) | {v for w, v in far if w == u})
        for u, nbrs in enumerate(neighbour_lists(g))
    ]
    wider = with_neighbour_lists(g, adjacency, g.edge_count + len(far) // 2)
    _check_oracle_against_eigh(wider)


def test_oracle_rejects_a_graph_the_pair_swaps_do_not_preserve():
    # keep only the edges at mask 0b0001: swapping coordinates 0 and 1 maps
    # the edge {0b0000, 0b0001} onto {0b0000, 0b0010}, which is gone
    g = cached_graph(4, 0, 2)
    hub = g.masks.tolist().index(0b0001)
    adjacency = [
        nbrs if u == hub else [v for v in nbrs if v == hub]
        for u, nbrs in enumerate(neighbour_lists(g))
    ]
    lopsided = with_neighbour_lists(g, adjacency, len(adjacency[hub]))
    with pytest.raises(InvalidParameterError, match="coordinates 0 and 1"):
        hm.oracle_spectrum(lopsided)


def test_oracle_block_norms_must_add_up_to_the_edge_count():
    g = cached_graph(6, 0, 3)
    with pytest.raises(ArithmeticError, match="block norms"):
        hm.oracle_spectrum(dataclasses.replace(g, edge_count=g.edge_count + 1))


def test_oracle_runs_at_most_one_svd_per_vertex(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counted(b, **kwargs):
        calls.append(b.shape)
        return svd(b, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    g = cached_graph(64, 0, 2)
    orc = hm.oracle_spectrum(g)
    assert 0 < len(calls) <= g.vertex_count
    assert orc.residual_bound <= orc.tolerance


@pytest.mark.parametrize("n,r1,r2,even,odd", [
    (6, 2, 2, 15, 0),  # r1 == r2: no edges, B has no columns
    (5, 1, 1, 0, 5),  # r1 == r2 on an odd sphere: B has no rows
    (6, 1, 2, 15, 6),  # |even| > |odd|
    (7, 2, 3, 21, 35),  # |odd| > |even|
])
def test_oracle_parity_split_shapes(n, r1, r2, even, odd):
    g = cached_graph(n, r1, r2)
    assert _parity_sizes(g) == (even, odd)
    w = _check_oracle_against_eigh(g)
    # at least the parity surplus is exactly zero, structurally
    assert (w == 0.0).sum() >= abs(even - odd)


def test_oracle_rank_deficient_biadjacency():
    # No band with n <= 12 inside the dense limit has a rank-deficient B, so
    # drop every edge that misses vertex 0 from the (4,0,2) ball: B (7 x 4)
    # keeps one nonzero row, rank 1, and the 9 zeros come from both
    # sigma = 0 and the parity surplus 7 - 4.
    g = cached_graph(4, 0, 2)
    adjacency = [
        nbrs if u == 0 else [v for v in nbrs if v == 0]
        for u, nbrs in enumerate(neighbour_lists(g))
    ]
    star = with_neighbour_lists(g, adjacency, 4)
    assert _parity_sizes(star) == (7, 4)
    w = _check_oracle_against_eigh(star)
    assert np.allclose(w, [-2] + [0] * 9 + [2], atol=1e-12)


def test_oracle_residual_above_tolerance_raises(monkeypatch):
    svd = np.linalg.svd

    def perturbed(b, **kwargs):
        u, s, vt = svd(b, **kwargs)
        return u, s + 1e-6, vt

    monkeypatch.setattr(np.linalg, "svd", perturbed)
    with pytest.raises(ArithmeticError):
        hm.oracle_spectrum(cached_graph(6, 0, 3))


def _assert_batch_equals_one_at_a_time(graphs):
    for g, got in zip(graphs, hm.oracle_spectra([(g, g.r1, g.r2) for g in graphs])):
        alone = hm.oracle_spectrum(g)
        assert np.array_equal(got.eigenvalues, alone.eigenvalues), (g.n, g.r1, g.r2)
        assert got.residual_bound == alone.residual_bound, (g.n, g.r1, g.r2)
        assert got.tolerance == alone.tolerance == 1e-10 * g.vertex_count


SMALL_BANDS = list(band_cases(11))


def test_batched_oracle_equals_one_graph_at_a_time_in_one_batch():
    _assert_batch_equals_one_at_a_time([cached_graph(*case) for case in SMALL_BANDS])
    assert hm.oracle_spectra([]) == []  # an empty batch does no work


def test_batched_oracle_equals_one_graph_at_a_time_in_batches_of_1024_vertices():
    batches = [[]]
    for case in SMALL_BANDS:
        g = cached_graph(*case)
        if sum(h.vertex_count for h in batches[-1]) + g.vertex_count > 1024:
            batches.append([])
        batches[-1].append(g)
    assert len(batches) > 1
    for batch in batches:
        _assert_batch_equals_one_at_a_time(batch)


def test_batched_oracle_equals_one_graph_at_a_time_on_large_and_wide_bands():
    # (64, 0, 2) uses all 64 mask bits, so a graph's keys cannot be packed next to its masks
    wide = [cached_graph(*case) for case in [(12, 0, 6), (12, 4, 6), (40, 0, 1), (64, 0, 2)]]
    _assert_batch_equals_one_at_a_time(wide)
    _assert_batch_equals_one_at_a_time([cached_graph(3, 0, 1), *wide[2:], cached_graph(5, 1, 2)])


def test_batched_oracle_checks_the_edge_count_of_each_graph():
    g = cached_graph(6, 0, 3)
    tampered = dataclasses.replace(g, edge_count=g.edge_count + 1)
    with pytest.raises(ArithmeticError, match="block norms"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in [cached_graph(5, 0, 2), tampered, cached_graph(7, 1, 3)]])


def test_batched_oracle_checks_the_edge_count_of_each_band_of_a_graph():
    # a band's edge count is its graph's less the edges cut away: a graph that claims one edge too many
    # fails in every band it serves
    g = cached_graph(8, 0, 4)
    tampered = dataclasses.replace(g, edge_count=g.edge_count + 1)
    for r1, r2 in [(0, 4), (1, 3), (2, 4), (0, 1)]:
        hm.oracle_spectra([(g, r1, r2)])
        with pytest.raises(ArithmeticError, match="block norms"):
            hm.oracle_spectra([(g, 1, 2), (tampered, r1, r2)])


def test_batched_oracle_checks_the_swap_invariance_of_each_graph():
    g = cached_graph(4, 0, 2)
    hub = g.masks.tolist().index(0b0001)
    adjacency = [
        nbrs if u == hub else [v for v in nbrs if v == hub]
        for u, nbrs in enumerate(neighbour_lists(g))
    ]
    lopsided = with_neighbour_lists(g, adjacency, len(adjacency[hub]))
    batch = [cached_graph(5, 0, 2), lopsided, cached_graph(6, 0, 3)]
    with pytest.raises(InvalidParameterError, match=r"\(4,0,2\) .*coordinates 0 and 1"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in batch])
    hm.oracle_spectra([(g, g.r1, g.r2) for g in [batch[0], batch[2]]])  # the untouched graphs pass on their own
    # a vertex set the swaps do not keep: mask 0b0010 of the star (4, 0, 1) becomes 0b1_0000
    star = cached_graph(4, 0, 1)
    moved = dataclasses.replace(star, masks=np.array([0, 1, 16, 4, 8], dtype=np.uint64))
    with pytest.raises(InvalidParameterError, match=r"\(4,0,1\) .*coordinates 0 and 1"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in [batch[0], moved, batch[2]]])


def test_batched_oracle_checks_the_exchange_invariance_of_each_graph():
    # only the edges 0b0000-0b0001 and 0b0000-0b0010: the swaps keep them, but the exchange of pairs 0 and 1
    # maps the first onto 0b0000-0b0100, which is gone
    g = cached_graph(4, 0, 2)
    masks = g.masks.tolist()
    hub, ends = masks.index(0b0000), [masks.index(0b0001), masks.index(0b0010)]
    two = with_neighbour_lists(g, [ends if u == hub else [hub] if u in ends else [] for u in range(len(masks))], 2)
    exchange = r"\(4,0,2\) is not invariant under the exchange of coordinate pairs 0 and 1$"
    with pytest.raises(InvalidParameterError, match=exchange):
        hm.oracle_spectrum(two)
    batch = [cached_graph(5, 0, 2), two, cached_graph(6, 0, 3)]
    with pytest.raises(InvalidParameterError, match=exchange):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in batch])
    hm.oracle_spectra([(g, g.r1, g.r2) for g in [batch[0], batch[2]]])  # the untouched graphs pass on their own
    # a vertex set the swaps keep and the exchange does not: the star (4, 0, 1) without 0b0100 and 0b1000
    star = cached_graph(4, 0, 1)
    half = with_neighbour_lists(dataclasses.replace(star, masks=star.masks[:3], indptr=star.indptr[:4]),
                                [[1, 2], [0], [0]], 2)
    with pytest.raises(InvalidParameterError, match=r"\(4,0,1\) is not invariant under the exchange of coordinate "
                       r"pairs 0 and 1$"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in [batch[0], half, batch[2]]])


def test_the_oracle_splits_each_large_block_by_a_pair_exchange(monkeypatch):
    # (12, 0, 6) has 6 distinct blocks, the largest 253 x 182; the exchange of the two lowest pairs outside each
    # character splits that one into 167 x 121 and 86 x 61, and a split at most doubles the matrices factored
    svd, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda b, **kw: shapes.extend([b.shape[1:]] * len(b)) or svd(b, **kw))
    hm.oracle_spectrum(hm.build_graph(12, 0, 6))
    assert max(shapes, key=lambda shape: shape[0] * shape[1]) == (167, 121)
    assert (86, 61) in shapes and len(shapes) <= 2 * 6


def test_batched_oracle_checks_the_dense_limit_of_each_graph():
    graphs = [cached_graph(4, 0, 1), cached_graph(6, 0, 3)]
    assert [s.tolerance for s in hm.oracle_spectra([(g, g.r1, g.r2) for g in graphs], dense_limit=42)] == [5e-10, 4.2e-9]
    with pytest.raises(BudgetExceededError):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in graphs], dense_limit=41)


def test_cell_count_is_the_cells_of_the_oracle_blocks():
    # the closed form against sum rows * cols of the blocks the oracle builds for the band's graph and
    # cuts for the band
    for n, r1, r2 in band_cases(12):
        g = cached_graph(n, r1, r2)
        graph_flat, rows, cols = hm._band_blocks([g], [(g, r1, r2)])[:3]
        assert hm.oracle_cells(n, r1, r2) == len(graph_flat) == int((rows * cols).sum()), (n, r1, r2)


@pytest.mark.parametrize("n,r1,r2,cells", [
    (40, 0, 3, 400_940),
    (16, 0, 7, 4_021_224),
    (60, 0, 3, 2_702_860),
    (20, 0, 10, 825_193_160),
    (22, 9, 11, 3_819_177_362),
])
def test_cell_count_of_bands_too_large_to_build_here(n, r1, r2, cells):
    assert hm.oracle_cells(n, r1, r2) == cells


def test_the_oracle_budget_is_cells_unless_a_vertex_limit_is_given():
    # (12, 0, 6): 2,510 vertices and 88,048 cells
    assert hm.check_budget(12, 0, 6) == 88_048
    assert hm.check_budget(12, 0, 6, 2510) == 2510
    with pytest.raises(BudgetExceededError, match=r"band \(12,0,6\) has 2510 vertices, budget 2509"):
        hm.check_budget(12, 0, 6, 2509)
    with pytest.raises(BudgetExceededError, match=r"band \(17,0,8\) has 24202090 oracle cells"):
        hm.check_budget(17, 0, 8)
    with pytest.raises(BudgetExceededError, match="oracle cells"):
        hm.oracle_spectrum(hm.build_graph(17, 0, 8))


def test_the_default_oracle_budget_bounds_the_vertices_too(monkeypatch):
    # a band of one sphere has no cells: (21, 10, 10) fits with 352,716 vertices, (22, 11, 11) does not
    assert hm.oracle_cells(22, 11, 11) == hm.check_budget(21, 10, 10) == 0
    with pytest.raises(BudgetExceededError, match=r"band \(22,11,11\) has 705432 vertices, budget 524288"):
        hm.check_budget(22, 11, 11)
    assert hm.check_budget(22, 11, 11, 705_432) == 705_432  # an explicit limit replaces both budgets
    monkeypatch.setattr(hm, "ORACLE_VERTEX_BUDGET", 162)
    with pytest.raises(BudgetExceededError, match=r"band \(8,0,4\) has 163 vertices, budget 162"):
        hm.oracle_spectrum(cached_graph(8, 0, 4))


def test_popcount_of_every_bit_position():
    rng = np.random.default_rng(7)
    masks = np.concatenate([
        rng.integers(0, 2**63, 1000, dtype=np.uint64) << np.uint64(1),
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)),
    ])
    counts = hm._popcount(masks)
    assert counts.dtype == np.int64
    assert counts.tolist() == [int(m).bit_count() for m in masks.tolist()]


def test_adjacent_spheres_spectrum_symmetric():
    for n in range(2, 9):
        for r1 in range(n // 2):
            w = cached_oracle(n, r1, r1 + 1).eigenvalues
            assert np.abs(w + w[::-1]).max() < 1e-8


def test_perron_for_balls():
    for n in range(1, 9):
        for r in range(1, n // 2 + 1):
            w = cached_oracle(n, 0, r).eigenvalues
            assert w[-1] - w[-2] > 1e-9  # simple top eigenvalue
            vec = cached_eigh(n, 0, r)[1][:, -1]
            if vec[np.abs(vec).argmax()] < 0:
                vec = -vec
            assert (vec > 0).all()


def test_rayleigh_on_perron_vector():
    g = cached_graph(4, 0, 1)
    val = pc.rayleigh_fractional_boundary(g, cached_eigh(4, 0, 1)[1][:, -1])
    assert val == pytest.approx(2.0, abs=1e-10)  # 4 - sqrt(4)


def test_rayleigh_single_vertex_indicator():
    g = cached_graph(5, 0, 2)
    f = np.zeros(g.vertex_count)
    f[3] = 1.0
    assert pc.rayleigh_fractional_boundary(g, f) == 5.0


def test_rayleigh_rejects_zero_function():
    g = cached_graph(4, 0, 1)
    with pytest.raises(pc.ZeroFunctionError):
        pc.rayleigh_fractional_boundary(g, np.zeros(5))


def test_subcube_dirichlet_reference():
    # an (n-1)-subcube has fractional boundary exactly 1; it is not a weight
    # band, so evaluate the quotient by direct enumeration over the cube
    n = 4
    inside = [x for x in range(1 << n) if not x & 8]
    f = {x: 1.0 for x in inside}
    num = 0.0
    for x in inside:
        for b in range(n):
            ynbr = x ^ (1 << b)
            num += f.get(ynbr, 0.0)
    den = float(len(inside))
    assert n - num / den == pytest.approx(1.0, abs=1e-12)


def test_edge_list_export():
    g = cached_graph(4, 0, 1)
    lines = list(g.edge_lines())
    assert lines == ["0 1", "0 2", "0 3", "0 4"]  # vertex indices, 0-based
    for line in lines:
        u, v = map(int, line.split())
        assert v in neighbour_lists(g)[u]


def relabelled(g, order):
    """The graph with its vertices listed in ``order`` (old indices), edges carried along."""
    new_index = np.empty(len(order), dtype=np.int64)
    new_index[order] = np.arange(len(order))
    lists = neighbour_lists(g)
    adjacency = [sorted(new_index[lists[u]].tolist()) for u in order]
    moved = with_neighbour_lists(g, adjacency, g.edge_count)
    return dataclasses.replace(moved, masks=g.masks[order])


def test_oracle_rejects_a_graph_that_lists_two_masks_of_a_sphere_in_swapped_order():
    # the same graph, still swap-invariant, with 0b000011 and 0b000101 of sphere 2 listed the other way
    # round: the swap images are found by their place in the vertex order, which this breaks
    g = cached_graph(6, 1, 3)
    masks = g.masks.tolist()
    order = list(range(g.vertex_count))
    a, b = masks.index(0b000011), masks.index(0b000101)
    order[a], order[b] = b, a
    swapped = relabelled(g, order)
    back = relabelled(swapped, order)  # the order is its own inverse
    assert np.array_equal(back.indptr, g.indptr) and np.array_equal(back.indices, g.indices)
    batch = [cached_graph(5, 0, 2), swapped, cached_graph(6, 0, 3)]
    with pytest.raises(InvalidParameterError, match=r"\(6,1,3\) is not invariant under the swap of "
                       r"coordinates \d and \d; its masks are not those of weight 1\.\.3 in ascending "
                       r"weight, then value"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in batch])


def test_oracle_rejects_a_graph_with_a_mask_dropped():
    # (6, 0, 3) without 0b000101 and its edges: the swap of coordinates 0 and 1 maps 0b000110 onto it
    g = cached_graph(6, 0, 3)
    masks = g.masks.tolist()
    gone = masks.index(0b000101)
    keep = [u for u in range(g.vertex_count) if u != gone]
    lists = neighbour_lists(g)
    adjacency = [[v - (v > gone) for v in lists[u] if v != gone] for u in keep]
    dropped = dataclasses.replace(
        with_neighbour_lists(g, adjacency, sum(map(len, adjacency)) // 2), masks=g.masks[keep]
    )
    with pytest.raises(InvalidParameterError, match=r"\(6,0,3\) is not invariant under the swap of "
                       r"coordinates 0 and 1; its masks are not those of weight 0\.\.3"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in [cached_graph(4, 0, 2), dropped]])


def without_edge(g, a, b):
    """The graph with the edge between masks a and b taken out, both ways."""
    masks = g.masks.tolist()
    u, v = masks.index(a), masks.index(b)
    lists = [[w for w in nbrs if {x, w} != {u, v}] for x, nbrs in enumerate(neighbour_lists(g))]
    return with_neighbour_lists(g, lists, g.edge_count - 1)


def test_oracle_rejects_a_graph_in_the_vertex_order_with_one_edge_taken_out():
    # the swap of coordinates 0 and 1 maps {0b000001, 0b000011} onto {0b000010, 0b000011}, which stays
    broken = without_edge(cached_graph(6, 0, 3), 0b000001, 0b000011)
    batch = [cached_graph(5, 0, 2), broken, cached_graph(4, 0, 2)]
    with pytest.raises(InvalidParameterError, match=r"^the graph \(6,0,3\) is not invariant under the swap of "
                       r"coordinates 0 and 1$"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in batch])


def test_oracle_names_the_graph_that_breaks_the_first_swap_when_two_graphs_are_at_fault():
    # (6, 0, 3) without {0b000100, 0b001100} keeps the swap of coordinates 0 and 1 and breaks that of 2 and
    # 3; the lopsided (4, 0, 2) breaks the swap of 0 and 1, so it is named though it comes later
    first = without_edge(cached_graph(6, 0, 3), 0b000100, 0b001100)
    swap = r"is not invariant under the swap of coordinates"
    with pytest.raises(InvalidParameterError, match=rf"\(6,0,3\) {swap} 2 and 3$"):
        hm.oracle_spectra([(first, 0, 3)])
    g = cached_graph(4, 0, 2)
    hub = g.masks.tolist().index(0b0001)
    lopsided = with_neighbour_lists(
        g, [nbrs if u == hub else [v for v in nbrs if v == hub] for u, nbrs in enumerate(neighbour_lists(g))], 4
    )
    batch = [cached_graph(5, 0, 2), first, cached_graph(7, 1, 3), lopsided]
    with pytest.raises(InvalidParameterError, match=rf"\(4,0,2\) {swap} 0 and 1$"):
        hm.oracle_spectra([(g, g.r1, g.r2) for g in batch])


def test_blocks_one_ulp_apart_are_both_factored():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((2, 3))
    near = block.copy()
    near[1, 2] = np.nextafter(near[1, 2], np.inf)
    signed = np.zeros((2, 3))
    signed[0, 0] = -0.0  # -0.0 == 0.0, but the bytes differ: the blocks are factored apart
    blocks = np.stack([block, block, near, np.zeros((2, 3)), block, signed, near])
    unique, group = hm._distinct(blocks)
    assert unique.tolist() == [0, 2, 3, 5]
    assert group.tolist() == [0, 0, 1, 2, 0, 3, 1]
    assert np.array_equal(blocks[unique][group].view(np.uint64), blocks.view(np.uint64))


def _graph_bytes(g):
    arrays = [(a.dtype.str, a.flags.writeable, a.tobytes()) for a in (g.masks, g.indptr, g.indices)]
    return (g.n, g.r1, g.r2), arrays, g.sphere_start, g.edge_count


def test_graphs_cut_from_one_recursion_have_the_bytes_of_their_own(monkeypatch):
    # every band with n <= 12 from the recursion of (12, 0, 6); those with r1 >= 2 from that of (12, 2, 6),
    # whose weight 2 has no D table of its own; and a batch whose widest band, (12, 0, 5), misses (12, 6, 6),
    # which recurses alone
    recursions, sphere_tables = [], hm._sphere_tables
    monkeypatch.setattr(hm, "_sphere_tables", lambda *band: recursions.append(band) or sphere_tables(*band))
    bands = sorted(band_cases(12))
    own = {band: _graph_bytes(hm.build_graph(*band)) for band in bands}
    assert len(bands) == len(recursions) == 139
    inner = [band for band in bands if band[1] >= 2]
    for batch, widest in [(bands, [(12, 0, 6)]), (inner, [(12, 2, 6)]),
                          ([(9, 0, 4), (12, 6, 6), (12, 0, 5), (11, 2, 5)], [(12, 0, 5), (12, 6, 6)])]:
        recursions.clear()
        assert [_graph_bytes(g) for g in hm.build_graphs(batch)] == [own[band] for band in batch]
        assert recursions == widest
    assert hm.build_graphs([]) == []
