import math
from fractions import Fraction

import numpy as np
import pytest

import paper_checks as pc
from ballspec import eigenfunctions as ef
from ballspec import spectrum as sp
from ballspec.errors import InvalidParameterError
from ballspec.hamming import weight_masks
from helpers import band_cases, cached_graph


def test_basis_origin_zero_is_constant_one():
    b = ef.build_basis(5, 0, 2, 0, 0)
    for i in range(3):
        assert tuple(b.value(i, c) for c in range(b.t + 1)) == (Fraction(1),)


def test_basis_closed_form_values():
    b = ef.build_basis(4, 0, 2, 1, 0b0001)
    assert b.value(2, 1) == 1
    assert b.value(2, 0) == Fraction(-1, 1)  # -(i-t+1)/(n-i) at i=2
    assert b.value(1, 1) == 1
    assert b.value(1, 0) == Fraction(-1, 3)


def test_basis_adjacent_class_value_formula():
    for n, r2, t in [(6, 3, 2), (8, 4, 3), (7, 3, 1)]:
        y = (1 << t) - 1
        b = ef.build_basis(n, 0, r2, t, y)
        for i in range(t, r2 + 1):
            assert b.value(i, t) == 1
            if n > i:
                assert b.value(i, t - 1) == Fraction(-(i - t + 1), n - i)


def test_basis_orthogonal_to_low_weight_sums():
    """Independent recomputation of <f, G_k> = 0 in exact rationals."""
    # single spheres r1 = r2 = n/2 up to t = n/2, and bands with r1 > t
    for n, r1, r2, t in [(6, 0, 3, 2), (8, 2, 4, 3), (7, 1, 3, 2), (8, 4, 4, 4), (8, 4, 4, 2),
                         (10, 5, 5, 5), (10, 4, 5, 1), (9, 3, 4, 2), (12, 5, 6, 3)]:
        y = (1 << t) - 1
        b = ef.build_basis(n, r1, r2, t, y)
        for i in range(max(t, r1), r2 + 1):
            for k in range(t):
                acc = sum(
                    (b.value(i, c) * math.comb(c, k) * ef.class_size(n, t, i, c)
                     for c in range(k, t + 1)),
                    Fraction(0),
                )
                assert acc == 0, (n, r1, r2, t, i, k)


def test_basis_matches_pointwise_indicator_sums():
    # expand to actual vertices and take inner products with real indicators
    n, t, i = 6, 2, 3
    y = 0b000011
    b = ef.build_basis(n, 0, 3, t, y)
    sphere = list(weight_masks(n, i))
    f = np.array([float(b.value(i, (x & y).bit_count())) for x in sphere])
    for w in range(t):
        for z in weight_masks(n, w):
            g_z = np.array([1.0 if x & z == z else 0.0 for x in sphere])
            assert abs(f @ g_z) < 1e-12


def restricted_operator(n, r1, r2, t):
    """The paper's adjacency on the origin-t subspace, in exact rationals.

    Row k is sphere i = max(t, r1) + k: super-diagonal n-i+1 into sphere i,
    sub-diagonal (i-t+1)(n-t-i)/(n-i) out of it.  Returns (beta, gamma).
    """
    tstar = max(t, r1)
    beta = [Fraction(n - i + 1) for i in range(tstar + 1, r2 + 1)]
    gamma = [Fraction((i - t + 1) * (n - t - i), n - i) for i in range(tstar, r2)]
    return beta, gamma


def dense(beta, gamma):
    m = len(beta) + 1
    a = np.zeros((m, m))
    for k in range(m - 1):
        a[k, k + 1] = float(beta[k])
        a[k + 1, k] = float(gamma[k])
    return a


def all_blocks(max_n):
    for n in range(2, max_n + 1):
        for r2 in range(1, n // 2 + 1):
            for r1 in range(r2 + 1):
                for t in range(r2 + 1):
                    yield n, r1, r2, t


def test_restricted_adjacency_example():
    op = dense(*restricted_operator(4, 0, 2, 0))
    assert np.array_equal(op, np.array([[0, 4, 0], [1, 0, 3], [0, 2, 0]], dtype=float))
    vals = np.sort(np.linalg.eigvals(op).real)
    assert vals == pytest.approx([-math.sqrt(10), 0, math.sqrt(10)], abs=1e-10)


def test_restricted_adjacency_single_sphere_is_zero():
    op = dense(*restricted_operator(6, 0, 3, 3))
    assert op.shape == (1, 1) and op[0, 0] == 0.0
    block = sp.coupling_matrix(6, 0, 3, 3)
    assert block.dim == 1 and block.offdiag_sq == ()
    assert block.eigenvalues().values == (0.0,) and block.eigenvalues().radius == (0.0,)
    assert np.array_equal(block.scaling(), [1.0])


def test_symmetrization_matches_coupling_block():
    # beta*gamma products equal the closed-form squared couplings, exactly
    beta, gamma = restricted_operator(4, 0, 2, 0)
    assert [b * g for b, g in zip(beta, gamma)] == [4, 6]
    for n, r1, r2 in [(6, 0, 3), (8, 1, 4), (9, 3, 4), (7, 2, 3)]:
        for t in range(r2 + 1):
            beta, gamma = restricted_operator(n, r1, r2, t)
            products = tuple(b * g for b, g in zip(beta, gamma))
            assert all(p.denominator == 1 for p in products)
            assert products == sp.coupling_matrix(n, r1, r2, t).offdiag_sq


def test_operator_eigenvalues_match_lambda_set():
    for n, r1, r2, t in all_blocks(10):
        got = np.sort(np.linalg.eigvals(dense(*restricted_operator(n, r1, r2, t))).real)
        want = sp.lambda_set(n, r1, r2, t).values
        assert np.abs(got - np.asarray(want)).max() < 1e-10


def test_scaling_turns_the_restricted_operator_into_the_block():
    for n, r1, r2, t in all_blocks(10):
        block = sp.coupling_matrix(n, r1, r2, t)
        d = block.scaling()
        assert d[0] == 1.0 and d.shape == (block.dim,)
        got = dense(*restricted_operator(n, r1, r2, t)) * d[None, :] / d[:, None]
        off = np.sqrt(np.asarray(block.offdiag_sq, dtype=float))
        want = np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (n, r1, r2, t)


def test_synthesize_star_null_function():
    fn = ef.synthesize(4, 0, 1, 1, 0b0001, 0)
    assert fn.eigenvalue == 0.0
    assert fn.values[0] == 0.0  # exact zero at the center
    assert fn.values[1] == pytest.approx(1.0)
    assert fn.values[2:] == pytest.approx([-1 / 3] * 3)
    g = cached_graph(4, 0, 1)
    assert np.abs(g.apply_adjacency(fn.values)).max() < 1e-14


def test_synthesize_perron_is_positive_spherical():
    for n, r in [(4, 2), (6, 3), (7, 2)]:
        block_dim = r + 1
        fn = ef.synthesize(n, 0, r, 0, 0, block_dim - 1)
        assert fn.eigenvalue == pytest.approx(sp.max_eigenvalue(n, r), abs=1e-10)
        assert (fn.values > 0).all()
        g = cached_graph(n, 0, r)
        for i in range(r + 1):
            sphere = fn.values[g.sphere_slice(i)]
            assert sphere.max() - sphere.min() < 1e-12


def test_synthesize_band_4_1_2():
    for which in range(2):
        fn = ef.synthesize(4, 1, 2, 0, 0, which)
        assert fn.residual <= 1e-10
        g = cached_graph(4, 1, 2)
        assert np.abs(fn.values[g.sphere_slice(1)]).max() > 0
        assert np.abs(fn.values[g.sphere_slice(2)]).max() > 0


def test_synthesize_normalization_and_vanishing():
    fn = ef.synthesize(6, 0, 3, 2, 0b000011, 1)
    assert fn.coeffs[0] == 1.0
    g = cached_graph(6, 0, 3)
    assert not fn.values[g.sphere_slice(0)].any()
    assert not fn.values[g.sphere_slice(1)].any()
    # normalized to 1 on supersets of the origin mask
    idx = [v for v, m in enumerate(g.masks.tolist()) if m & 0b000011 == 0b000011 and m.bit_count() == 2]
    assert fn.values[idx] == pytest.approx([1.0])


@pytest.mark.parametrize("n,r1,r2,t,which,y", [
    (18, 0, 5, 2, 1, 0b100000000000100000),
    (18, 0, 5, 5, 0, 0b010010000100100001),
    (18, 0, 5, 0, 5, 0),
    (10, 2, 5, 3, 2, 0b1000100100),
    (12, 4, 6, 1, 0, 0b000001000000),
])
def test_synthesized_values_are_the_per_vertex_class_lookup(n, r1, r2, t, which, y):
    # the (weight, overlap) table gives each vertex its class value, and exact zeros below tstar
    fn = ef.synthesize(n, r1, r2, t, y, which)
    reference = [
        fn.class_values[(m.bit_count(), (m & y).bit_count())] if m.bit_count() >= fn.tstar else 0.0
        for m in cached_graph(n, r1, r2).masks.tolist()
    ]
    assert fn.values.tolist() == reference
    assert [math.copysign(1.0, v) for v in fn.values.tolist()] == [math.copysign(1.0, v) for v in reference]


def test_synthesize_invalid_index():
    with pytest.raises(InvalidParameterError):
        ef.synthesize(4, 0, 2, 0, 0, 3)


def test_membership_constant_function():
    assert pc.check_eigenspace_membership(4, 2, 0, np.ones(6))


def test_membership_of_synthesized_restriction():
    g = cached_graph(4, 0, 2)
    fn = ef.synthesize(4, 0, 2, 1, 0b0001, 0)
    restriction = fn.values[g.sphere_slice(2)]
    assert pc.check_eigenspace_membership(4, 2, 1, restriction)
    assert not pc.check_eigenspace_membership(4, 2, 0, restriction)


def test_membership_superset_indicator_fails_below_its_weight():
    # the weight-t superset indicator overlaps the all-ones function:
    # <g_z, g_empty> = C(n-t, i-t) != 0
    n, i, t = 6, 3, 2
    z = 0b000011
    sphere = list(weight_masks(n, i))
    g_z = [1.0 if x & z == z else 0.0 for x in sphere]
    assert sum(g_z) == math.comb(n - t, i - t)
    assert not pc.check_eigenspace_membership(n, i, t, g_z)


def test_membership_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        pc.check_eigenspace_membership(4, 2, 1, np.ones(5))


def test_zonal_uniqueness_examples():
    assert pc.check_zonal_uniqueness(4, 2, 1).dimension == 1
    assert pc.check_zonal_uniqueness(6, 3, 3).dimension == 1
    for n, i in [(4, 2), (6, 3), (8, 4)]:
        assert pc.check_zonal_uniqueness(n, i, 0).dimension == 1


def test_zonal_uniqueness_sweep():
    for n in range(2, 9):
        for i in range(n // 2 + 1):
            for t in range(i + 1):
                assert pc.check_zonal_uniqueness(n, i, t).dimension == 1


def test_nonzero_components_do_not_vanish_on_origin_supersets():
    n, r1, r2, t = 6, 0, 3, 1
    y = 0b000001
    g = cached_graph(n, r1, r2)
    sup_idx = {
        i: [v for v, m in enumerate(g.masks.tolist()) if m & y == y and m.bit_count() == i]
        for i in range(t, r2 + 1)
    }
    for which in range(3):
        fn = ef.synthesize(n, r1, r2, t, y, which)
        for k, i in enumerate(range(t, r2 + 1)):
            on_supersets = np.abs(fn.values[sup_idx[i]]).max()
            # normalized to the coefficient itself on supersets of the origin
            assert on_supersets == abs(fn.coeffs[k])
            sphere_sup = np.abs(fn.values[g.sphere_slice(i)]).max()
            if sphere_sup > 1e-12:
                assert on_supersets > 0.0


def test_cross_origin_orthogonality_at_shared_eigenvalue():
    f0 = ef.synthesize(4, 0, 2, 0, 0, 1)  # eigenvalue 0 from origin 0
    f2 = ef.synthesize(4, 0, 2, 2, 0b0011, 0)  # eigenvalue 0 from origin 2
    assert f0.eigenvalue == f2.eigenvalue == 0.0
    dot = abs(float(f0.values @ f2.values))
    assert dot <= 1e-8 * np.linalg.norm(f0.values) * np.linalg.norm(f2.values)


def test_restriction_determines_function():
    # any combination vanishing on the lowest supporting sphere vanishes everywhere
    n, r1, r2, t = 6, 0, 3, 1
    g = cached_graph(n, r1, r2)
    rows = [
        ef.synthesize(n, r1, r2, t, y, 0).values
        for y in weight_masks(n, t)
    ]
    full = np.array(rows)
    restr = full[:, g.sphere_slice(t)]
    rank_full = np.linalg.matrix_rank(full, tol=1e-8)
    rank_restr = np.linalg.matrix_rank(restr, tol=1e-8)
    assert rank_full == rank_restr == math.comb(n, t) - math.comb(n, t - 1)


def test_json_schema():
    fn = ef.synthesize(4, 0, 2, 1, 0b0001, 0)
    d = fn.to_dict()
    assert set(d) == {"lambda", "t", "y", "spheres"}
    assert d["y"] == "0001"
    assert [s["i"] for s in d["spheres"]] == [1, 2]
    for s in d["spheres"]:
        assert [c["c"] for c in s["classes"]] == [0, 1]


def _eigenspace_faults(n, r1, r2, multiplicity=sp.origin_multiplicity, alter=None):
    """What fails of the paper's eigenspaces on the band (n, r1, r2), checked against a dense eigensolve.

    For each line and each of its origins t, the lifts of ``synthesize``'s
    class values, table[|x|, |x & y|] over every mask y of weight t, must
    have numerical rank ``multiplicity(n, t)`` (singular values above 1e-9
    of the largest), lie within 1e-10 of the line's dense eigenspace E, as
    |(I - E E^T) Q|_2 with Q an orthonormal basis of their span, and be
    orthogonal to the lifts of the line's other origins, to within 1e-10.
    ``alter(t, table)`` may change an origin's class values first.
    """
    g = cached_graph(n, r1, r2)
    values, vectors = np.linalg.eigh(g.dense_adjacency())
    ones, faults = np.array([int(m).bit_count() for m in g.masks.tolist()]), []
    for line in sp.full_spectrum(n, r1, r2).lines:
        e = vectors[:, np.abs(values - line.value) < 1e-8]
        spans = []
        for t in line.contributors:
            which = int(np.argmin(np.abs(np.array(sp.lambda_set(n, r1, r2, t).values) - line.value)))
            table = np.zeros((r2 + 1, t + 1))
            for (i, c), value in ef.synthesize(n, r1, r2, t, (1 << t) - 1, which).class_values.items():
                table[i, c] = value
            if alter:
                alter(t, table)
            lifts = np.stack([table[ones, [int(m & y).bit_count() for m in g.masks.tolist()]]
                              for y in weight_masks(n, t)], axis=1)
            u, s, _ = np.linalg.svd(lifts, full_matrices=False)
            q = u[:, : int((s > 1e-9 * s[0]).sum())]
            if q.shape[1] != multiplicity(n, t):
                faults.append((line.value, t, "rank", q.shape[1]))
            if np.linalg.norm(q - e @ (e.T @ q), 2) > 1e-10:
                faults.append((line.value, t, "span"))
            faults += [(line.value, t, "orthogonal", other)
                       for other, p in spans if np.linalg.norm(p.T @ q, 2) > 1e-10]
            spans.append((t, q))
    return faults


@pytest.mark.parametrize("n,r1,r2", sorted(band_cases(10)))
def test_the_lifts_of_each_line_span_its_eigenspace(n, r1, r2):
    assert _eigenspace_faults(n, r1, r2) == []


def test_the_eigenspace_check_sees_one_altered_multiplicity_or_class_value():
    # (8, 2, 4): origin 1 gives the lines -+sqrt(21) and -+sqrt(5), each with 7 dimensions
    def plus_one_at_1(n, t):
        return sp.origin_multiplicity(n, t) + (t == 1)

    def bump_at_1(t, table):
        if t == 1:
            table[3, 0] += 0.25

    assert {fault[1:3] for fault in _eigenspace_faults(8, 2, 4, multiplicity=plus_one_at_1)} == {(1, "rank")}
    altered = {fault[1:3] for fault in _eigenspace_faults(8, 2, 4, alter=bump_at_1)}
    assert (1, "span") in altered and {t for t, _ in altered} == {1}  # the rank may grow too
