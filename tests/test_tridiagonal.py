import numpy as np
import pytest

from ballspec import tridiagonal as td


def dense(diag, off):
    a = np.diag(np.asarray(diag, float))
    off = np.asarray(off, float)
    return a + np.diag(off, 1) + np.diag(off, -1)


def test_two_by_two_antidiagonal():
    vals, radii = td.eigenvalues_all([0.0, 0.0], [2.0])
    assert vals[0] == pytest.approx(-np.sqrt(2), abs=1e-12)
    assert vals[1] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert all(r < 1e-11 for r in radii)


def test_count_below_at_exact_eigenvalue():
    # zero pivots must still count correctly
    assert td.count_below([0.0, 0.0], [2.0], 0.0) == 1
    assert td.count_below([0.0, 0.0, 0.0], [1.0, 1.0], 0.0) in (1, 2)


def test_random_matrices_against_numpy():
    rng = np.random.default_rng(20240117)
    for m in (1, 2, 3, 5, 8, 13, 21):
        d = rng.normal(size=m) * 3
        e = rng.normal(size=m - 1) * 2
        vals, radii = td.eigenvalues_all(list(d), list(e * e), 1e-13)
        ref = np.linalg.eigvalsh(dense(d, e))
        assert np.abs(np.asarray(vals) - ref).max() < 1e-10
        assert np.all(np.diff(vals) >= 0)


def test_certified_radius_brackets_truth():
    rng = np.random.default_rng(7)
    d = rng.normal(size=9)
    e = rng.normal(size=8)
    ref = np.linalg.eigvalsh(dense(d, e))
    for k in range(9):
        v, r = td.eigenvalue_k(list(d), list(e * e), k, tol=1e-10)
        assert abs(v - ref[k]) <= r + 1e-12


def test_eigenvector_inverse_iteration():
    rng = np.random.default_rng(11)
    d = rng.normal(size=7)
    e = rng.uniform(0.5, 2.0, size=6)  # unreduced
    a = dense(d, e)
    ref = np.linalg.eigvalsh(a)
    for k in (0, 3, 6):
        v = td.eigenvector(list(d), list(e * e), ref[k])
        assert np.linalg.norm(a @ v - ref[k] * v) < 1e-9
        assert v[0] != 0.0


def test_eigenvalue_index_range():
    with pytest.raises(ValueError):
        td.eigenvalue_k([0.0, 0.0], [1.0], 2)
