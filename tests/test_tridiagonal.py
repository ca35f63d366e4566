import math

import numpy as np
import pytest

import paper_checks as pc
from ballspec import tridiagonal as td
from ballspec.krawtchouk import _jacobi_matrix, jacobi_couplings, roots
from ballspec.spectrum import coupling_matrix, full_spectrum
from helpers import band_cases, exact_count_at


# A case lists its whole diagonal, as the row-loop references below read it; the routines
# take the one value of that constant diagonal.


def dense(diag, off):
    a = np.diag(np.asarray(diag, float))
    off = np.asarray(off, float)
    return a + np.diag(off, 1) + np.diag(off, -1)


def constant(diag):
    # the one value of a case's diagonal, with its sign
    assert len({repr(v) for v in diag}) == 1, diag
    return diag[0]


def jacobi(n, k):
    off_sq, d = _jacobi_matrix(n, k)
    return [d] * k, off_sq


def test_two_by_two_antidiagonal():
    vals, radii = td.eigenvalues_all([2.0], 0.0)
    assert vals[0] == pytest.approx(-np.sqrt(2), abs=1e-12)
    assert vals[1] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert all(r < 1e-11 for r in radii)


def test_count_below_at_exact_eigenvalue():
    # zero pivots must still count correctly
    assert td.count_below([2.0], 0.0, 0.0) == 1
    assert td.count_below([1.0, 1.0], 0.0, 0.0) in (1, 2)


def test_random_matrices_against_numpy():
    rng = np.random.default_rng(20240117)
    for m in (1, 2, 3, 5, 8, 13, 21):
        d = float(rng.normal()) * 3
        e = rng.normal(size=m - 1) * 2
        vals, radii = td.eigenvalues_all((e * e).tolist(), d, 1e-13)
        ref = np.linalg.eigvalsh(dense([d] * m, e))
        assert np.abs(np.asarray(vals) - ref).max() < 1e-10
        assert np.all(np.diff(vals) >= 0)


def test_certified_radius_brackets_truth():
    rng = np.random.default_rng(7)
    d = float(rng.normal())
    e = rng.normal(size=8)
    ref = np.linalg.eigvalsh(dense([d] * 9, e))
    for k in range(9):
        v, r = td.eigenvalue_k((e * e).tolist(), d, k, tol=1e-10)
        assert abs(v - ref[k]) <= r + 1e-12


def test_eigenvector_inverse_iteration():
    rng = np.random.default_rng(11)
    d = float(rng.normal())
    e = rng.uniform(0.5, 2.0, size=6)  # unreduced
    a = dense([d] * 7, e)
    assert np.array_equal(td.dense((e * e).tolist(), d), a)
    ref = np.linalg.eigvalsh(a)
    for k in (0, 3, 6):
        v = td.eigenvector((e * e).tolist(), d, ref[k])
        assert np.linalg.norm(a @ v - ref[k] * v) < 1e-9
        assert v[0] != 0.0


def test_eigenvalue_index_range():
    with pytest.raises(ValueError):
        td.eigenvalue_k([1.0], 0.0, 2)


def random_block(seed, m):
    # random couplings and a random constant diagonal
    rng = np.random.default_rng(seed)
    e = rng.normal(size=m - 1) * 2
    return [float(rng.normal()) * 3] * m, (e * e).tolist()


def bisection_run(off_sq, d, k, tol=td.DEFAULT_TOL):
    # the unseeded bisection step by step: its midpoints and its final bracket
    lo, hi = td._gershgorin(off_sq, d)
    mids = []
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        mids.append(mid)
        if td.count_below(off_sq, d, mid) > k:
            hi = mid
        else:
            lo = mid
    return mids, lo, hi


def counted(monkeypatch):
    # patch count_below to record every shift it sweeps at
    shifts = []
    count_below = td.count_below

    def counting(off_sq, d, x, **kwargs):
        shifts.append(x)
        return count_below(off_sq, d, x, **kwargs)

    monkeypatch.setattr(td, "count_below", counting)
    return shifts


GUESS_CASES = [
    (*jacobi(1000, 300), 0),
    (*jacobi(300, 200), 0),
    (*random_block(11, 40), 17),
    (*random_block(12, 9), 8),
    # the ball (18, 0, 9) at t = 0, whose Krawtchouk seed of index 3 lands in the final bracket
    # below the root's
    ([0.0] * 10, [float(v) for v in coupling_matrix(18, 0, 9, 0).offdiag_sq], 3),
]


@pytest.mark.parametrize("diag,off_sq,k", GUESS_CASES)
def test_guess_never_changes_the_result(diag, off_sq, k, monkeypatch):
    d = constant(diag)
    plain = td.eigenvalue_k(off_sq, d, k)
    root = plain[0]
    mids, lo, hi = bisection_run(off_sq, d, k)
    assert 0.5 * (lo + hi) == root
    glo, ghi = td._gershgorin(off_sq, d)
    up, down = math.inf, -math.inf
    guesses = [root, root - 1e-13, root + 3e-12, root - 3e-12, root - 1e-9, root + 0.5,
               root - 1e6, root + 1e6, 1e308, -1e308, 0.0, -0.0,
               math.nan, math.inf, -math.inf,
               *mids,  # exactly on every midpoint of the unseeded run
               math.nextafter(lo, down), lo, math.nextafter(lo, up),
               math.nextafter(hi, down), hi, math.nextafter(hi, up),
               glo, math.nextafter(glo, up), math.nextafter(ghi, down), ghi,
               5e-324, -5e-324, 1e-310, -1e-310]
    shifts = counted(monkeypatch)
    for guess in guesses:
        shifts.clear()
        assert td.eigenvalue_k(off_sq, d, k, guess=guess) == plain, guess
        # a bad guess wastes at most its checks: two per try
        assert len(shifts) <= len(mids) + 2 * (1 + td._RETRIES), guess


@pytest.mark.parametrize("diag,off_sq,k", GUESS_CASES)
def test_the_array_form_of_the_couplings_keeps_the_bits(diag, off_sq, k, monkeypatch):
    # the bracket and pivot floor come from the array, the sweeps from the list
    d = constant(diag)
    array = np.asarray(off_sq, dtype=float)
    plain = td.eigenvalue_k(off_sq, d, k)
    shifts = counted(monkeypatch)
    for guess in (None, plain[0], plain[0] + 1e-9, math.nan):
        assert td.eigenvalue_k(off_sq, d, k, guess=guess, array=array) == plain, guess
    assert len(shifts) > 0


@pytest.mark.parametrize("diag,off_sq,k", GUESS_CASES)
def test_a_guess_costs_two_counts_when_it_is_right(diag, off_sq, k, monkeypatch):
    d = constant(diag)
    plain = td.eigenvalue_k(off_sq, d, k)
    mids, _, _ = bisection_run(off_sq, d, k)
    shifts = counted(monkeypatch)
    assert td.eigenvalue_k(off_sq, d, k, guess=plain[0]) == plain
    assert len(shifts) == 2
    for guess in (plain[0] - 1e-9, plain[0] + 1e-9):
        shifts.clear()
        assert td.eigenvalue_k(off_sq, d, k, guess=guess) == plain, guess
        # the proven bound spares every midpoint past it: 27-38 counts here, against 43-49
        assert len(shifts) < len(mids), guess


@pytest.mark.parametrize("diag,off_sq,k", GUESS_CASES)
def test_a_guess_one_bracket_off_costs_one_retry(diag, off_sq, k, monkeypatch):
    # below the root's bracket, the walk's hi fails, and the retry from it counts its lo and the
    # root's hi; above, the walk's lo fails, and the retry counts only the root's lo
    d = constant(diag)
    plain = td.eigenvalue_k(off_sq, d, k)
    _, lo, hi = bisection_run(off_sq, d, k)
    shifts = counted(monkeypatch)
    for guess, counts in ((math.nextafter(lo, -math.inf), 3), (math.nextafter(hi, math.inf), 2)):
        shifts.clear()
        assert td.eigenvalue_k(off_sq, d, k, guess=guess) == plain, guess
        assert len(shifts) == counts, guess


def test_the_retry_case_is_seeded_one_bracket_below(monkeypatch):
    _, off_sq, k = GUESS_CASES[-1]
    _, lo, hi = bisection_run(off_sq, 0.0, k)
    seed = 2.0 * roots(18, 10).values[3] - 18
    assert lo - (hi - lo) < seed < lo
    plain = td.eigenvalue_k(off_sq, 0.0, k)
    shifts = counted(monkeypatch)
    assert td.eigenvalue_k(off_sq, 0.0, k, guess=seed) == plain
    assert len(shifts) == 3


@pytest.mark.parametrize("diag,off_sq", [
    jacobi(1000, 300),
    jacobi(200, 150),
    jacobi(65, 40),
    random_block(21, 50),
    ([0.0] * 31, [float(i * (32 - i)) for i in range(1, 31)]),
])
def test_count_below_is_monotone_next_to_roots(diag, off_sq):
    # the seeded bisection in eigenvalue_k is exact only if this holds
    rng = np.random.default_rng(3)
    d = constant(diag)
    for k in range(0, len(diag), max(1, len(diag) // 12)):
        root, _ = td.eigenvalue_k(off_sq, d, k)
        near = root + rng.uniform(-1e-9, 1e-9, size=200)
        ulps = root + np.arange(-60, 61) * math.ulp(root)
        shifts = np.sort(np.concatenate([near, ulps, [root]]))
        counts = [td.count_below(off_sq, d, float(x)) for x in shifts]
        assert all(a <= b for a, b in zip(counts, counts[1:])), root


def gershgorin_loop(diag, off_sq):
    # the bracket as a per-row loop: the reference the vectorized one must match bit for bit
    m = len(diag)
    off = [math.sqrt(v) for v in off_sq]
    lo, hi = math.inf, -math.inf
    for i in range(m):
        spread = (off[i - 1] if i > 0 else 0.0) + (off[i] if i < m - 1 else 0.0)
        lo = min(lo, diag[i] - spread)
        hi = max(hi, diag[i] + spread)
    pad = 1e-10 * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


def coupling_block(n, r1, r2, t):
    block = coupling_matrix(n, r1, r2, t)
    return [0.0] * block.dim, [float(v) for v in block.offdiag_sq]


@pytest.mark.parametrize("diag,off_sq", [
    jacobi(10**5, 44120),
    jacobi(1000, 300),
    coupling_block(200, 50, 100, 10),
    coupling_block(160, 79, 80, 3),
    coupling_block(60, 0, 30, 0),
    random_block(31, 50),
    random_block(32, 7),
    random_block(33, 2),
    ([0.0, 0.0], [2.0]),
    ([-2.0, -2.0], [0.0]),
    ([-0.0, -0.0, -0.0, -0.0], [1.0, 4.0, 2.25]),
    ([-0.0, -0.0], [0.0]),
    ([0.0, 0.0], [0.0]),
])
def test_gershgorin_bracket_matches_the_row_loop(diag, off_sq):
    got = td._gershgorin(off_sq, constant(diag))
    assert got == gershgorin_loop(diag, off_sq)
    assert all(type(x) is float for x in got)
    assert td._gershgorin(np.asarray(off_sq, dtype=float), constant(diag)) == got  # the array form


def count_below_loop(diag, off_sq, x):
    # the Sturm count as a plain row loop: the reference the fast one must match exactly
    pivmin = td._SAFMIN * max(1.0, max(off_sq, default=1.0))
    q = diag[0] - x
    if abs(q) <= pivmin:
        q = -pivmin
    count = 1 if q < 0.0 else 0
    for d, e2 in zip(diag[1:], off_sq):
        q = d - x - e2 / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def assert_counts_match(diag, off_sq, shifts):
    pivmin = td._SAFMIN * max(1.0, max(off_sq, default=1.0))
    assert td._pivot_floor(off_sq) == pivmin
    assert td._pivot_floor(np.asarray(off_sq, dtype=float)) == pivmin  # the array form, empty too
    d = constant(diag)
    for x in shifts:
        ref = count_below_loop(diag, off_sq, x)
        assert td.count_below(off_sq, d, x) == ref, x
        assert td.count_below(off_sq, d, x, pivmin=pivmin) == ref, x


def shifts_around(values, rng):
    out = []
    for v in values:
        out += [v, v - 1e-9, v + 1e-9, *(v + i * math.ulp(v) for i in (-3, -1, 1, 3))]
        out += list(v + rng.uniform(-1e-6, 1e-6, size=3))
    return [float(x) for x in out]


def test_count_below_matches_the_row_loop_on_the_large_jacobi_block():
    diag, off_sq = jacobi(10**5, 44120)
    root = 362.99608045511195  # first_root(10**5, 44120), pinned by a golden
    assert_counts_match(diag, off_sq, shifts_around([root], np.random.default_rng(5)))


@pytest.mark.parametrize("block", [
    coupling_block(200, 50, 100, 10),
    coupling_block(160, 79, 80, 3),
    coupling_block(60, 0, 30, 0),
    coupling_block(12, 0, 6, 6),
    jacobi(1000, 300),
    random_block(41, 1),
    random_block(42, 2),
    random_block(43, 7),
    random_block(44, 50),
])
def test_count_below_matches_the_row_loop(block):
    diag, off_sq = block
    values = np.linalg.eigvalsh(dense(diag, np.sqrt(off_sq))) if off_sq else diag
    rng = np.random.default_rng(len(diag))
    assert_counts_match(diag, off_sq, shifts_around(values, rng) + [0.0, -0.0, diag[0]])


@pytest.mark.parametrize("diag,off_sq,x", [
    ([1.0, 1.0, 1.0], [1.0, 1.0], 1.0),  # q = +0.0 in row 0, a tiny negative q in row 2
    ([-0.0, -0.0], [1.0], 0.0),  # q = -0.0 in row 0
    ([0.0, 0.0], [2.0], -0.0),
    ([1.0, 1.0], [1.0], 0.0),  # q = +0.0 in the last row
    ([2.0, 2.0, 2.0], [4.0, 3.0], 0.0),  # q = +0.0 in row 1, with a row after it
    ([1.0, 1.0], [2.0], 1.0),  # a floored row 0 sends row 1 to about 1 / _SAFMIN
    ([-0.0, -0.0, -0.0, -0.0], [1.0, 1.0, 1.0], 0.0),  # q = -0.0 in row 0, a floor again in row 2
    ([0.5, 0.5, 0.5], [0.0, 0.0], 0.5),  # zero off-diagonals
    ([0.0, 0.0, 0.0], [0.0, 0.0], 0.0),
    ([3.0, 3.0, 3.0], [1e300, 4.0], 3.0),  # pivmin > _SAFMIN
    ([1e-10, 1e-10, 1e-10], [1e300, 4.0], 0.0),  # ... and a floor at _SAFMIN would count 1, not 2
    ([3.0, 3.0, 3.0], [1e300, 1e-300], -1.0),
    ([3.0, 3.0, 3.0], [1e300, 1e-300], 1e300),
    ([0.0, 0.0, 0.0], [1.0, 1e300], 1e-310),  # a tiny negative q is floored too
    ([0.0, 0.0, 0.0, 0.0], [1.0, 1e300, 1.0], 1e-310),  # ... with a row after the big one
    ([0.0, 0.0, 0.0], [1.0, 1.0], math.nan),
    ([2.0, 2.0, 2.0], [1.0, 1.0], math.nan),
    ([2.0, 2.0, 2.0], [1.0, 1.0], math.inf),
    ([1.0, 1.0, 1.0], [1.0, 1.0], -math.inf),
    ([7.0], [], 7.0),
    ([7.0], [], math.nan),
    # pivots at exactly +-pivmin and at the float on each side of each, where the loop's test
    # q <= pivmin and its floor q >= -pivmin change their outcome (pivmin = _SAFMIN here)
    ([td._SAFMIN, td._SAFMIN], [1.0], 0.0),  # q = pivmin in row 0
    ([td._SAFMIN, td._SAFMIN], [1.0], -math.ulp(0.0)),  # ... just above it
    ([td._SAFMIN, td._SAFMIN], [1.0], math.ulp(0.0)),  # ... just below it
    ([-td._SAFMIN, -td._SAFMIN], [1.0], 0.0),  # q = -pivmin in row 0
    ([-td._SAFMIN, -td._SAFMIN], [1.0], -math.ulp(0.0)),  # ... just above it
    ([-td._SAFMIN, -td._SAFMIN], [1.0], math.ulp(0.0)),  # ... just below it
    ([td._SAFMIN, td._SAFMIN], [0.0], 0.0),  # q = pivmin in row 0, and a zero coupling keeps it in row 1
    ([td._SAFMIN], [], 0.0),  # q = pivmin in the last row
    ([td._SAFMIN], [], -math.ulp(0.0)),  # ... just above it
    ([td._SAFMIN / 2] * 3, [0.5, 0.75], 0.0),  # q = -pivmin in row 2, after a floor in row 0
    ([td._SAFMIN / 2] * 3, [0.5, math.nextafter(0.75, 0.0)], 0.0),  # ... just above it
    ([td._SAFMIN / 2] * 3, [0.5, math.nextafter(0.75, 1.0)], 0.0),  # ... just below it
])
def test_count_below_matches_the_row_loop_at_the_pivot_floor(diag, off_sq, x):
    assert_counts_match(diag, off_sq, [x])


def assert_all_is_each(off_sq, d):
    values, radii = td.eigenvalues_all(off_sq, d)
    each = [td.eigenvalue_k(off_sq, d, k) for k in range(len(off_sq) + 1)]
    # float.hex tells -0.0 from 0.0, which == does not
    assert [v.hex() for v in values] == [v.hex() for v, _ in each], (off_sq, d)
    assert [r.hex() for r in radii] == [r.hex() for _, r in each], (off_sq, d)


def test_eigenvalues_all_is_eigenvalue_k_on_every_coupling_block():
    # rows a..b of the Jacobi matrix over {0..N}, every band's block with n <= 24 among them, at d = 0
    # and d = N/2: the mirror guesses of the lower half change no bit at either diagonal.  At d = 0
    # the first midpoint is exactly 0, where row 0's pivot is floored
    dims = set()
    for n in range(1, 25):
        for a in range(n + 1):
            for b in range(a, n + 1):
                off_sq = [float(v) for v in jacobi_couplings(n, a, b).tolist()]
                dims.add(len(off_sq) + 1)
                assert_all_is_each(off_sq, 0.0)
                assert_all_is_each(off_sq, n / 2)
    assert {1, 2} <= dims


@pytest.mark.parametrize("diag,off_sq", [
    jacobi(1000, 300),
    jacobi(65, 40),
    random_block(51, 1),
    random_block(52, 2),
    random_block(53, 9),
    random_block(54, 40),
    random_block(55, 2),
    random_block(56, 3),
    random_block(57, 18),
    random_block(58, 31),
])
def test_eigenvalues_all_is_eigenvalue_k_at_every_index(diag, off_sq):
    assert_all_is_each(off_sq, constant(diag))


def test_the_mirror_guesses_settle_the_lower_half_in_a_few_counts(monkeypatch):
    # (200, 50, 100) has 50 blocks with t < r1, which have no Krawtchouk seeds: 158,521 counts when
    # every index of those is bisected from the Gershgorin bracket, 84,524 with the mirror guesses
    solves = []  # [k, m, Sturm counts] of each index, from the _bisect that solves it
    bisect, count_below = td._bisect, td.count_below

    def start(off_sq, d, k, *args):
        solves.append([k, len(off_sq) + 1, 0])
        return bisect(off_sq, d, k, *args)

    def count(*args, **kwargs):
        solves[-1][2] += 1
        return count_below(*args, **kwargs)

    monkeypatch.setattr(td, "_bisect", start)
    monkeypatch.setattr(td, "count_below", count)
    full_spectrum(200, 50, 100)
    lower = [c for k, m, c in solves if k < m - 1 - k]
    assert len(lower) > 1000 and max(lower) <= 4
    assert sum(c for *_, c in solves) < 95_000


# (N, k) of Krawtchouk Jacobi matrices, with the ranks of the roots probed within 60 ulps of them (all
# for the small ones); (2^33, 5) has couplings past int64
KERNEL_CASES = [(1, 1, None), (7, 3, None), (20, 7, None), (64, 33, None), (1000, 781, (0, 389, 780)),
                (10**4, 1100, (0, 1099)), (2**33, 5, None)]


@pytest.mark.parametrize("n,k,ranks", KERNEL_CASES)
def test_exact_count_is_the_independent_integer_count_on_jacobi_matrices(n, k, ranks):
    # the kernel on 2J (diagonal N, squared couplings (j-1)(N-j+2)) at 2x against paper_checks'
    # count of J at x, at random floats and within 60 ulps of roots; the rational roots, whose double
    # is an integer, are left to the next test
    couplings = jacobi_couplings(n, 0, k - 1).tolist()
    roots = np.linalg.eigvalsh(td.dense(*_jacobi_matrix(n, k))).tolist()
    rng = np.random.default_rng(k)
    points = rng.uniform(-1.0, n + 1.0, size=8).tolist()
    for i in range(k) if ranks is None else ranks:
        unit = math.ulp(max(1.0, abs(roots[i])))  # the smallest roots of (1000, 781) are below 1e-30
        points += [roots[i] + j * unit for j in (-60, -20, -3, -1, 0, 1, 3, 20, 60)]
    for x in points:
        if not (2 * x).is_integer():
            assert exact_count_at(couplings, n, 2 * x) == (pc.exact_count_below(n, k, x), False), (n, k, x)


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (64, 33), (1000, 781), (2**33, 5)])
def test_exact_count_flags_the_half_integer_root_of_odd_degree(n, k):
    # N/2 is the middle root of K_k for odd k: 2J has the eigenvalue N, with k // 2 below it
    couplings = jacobi_couplings(n, 0, k - 1).tolist()
    assert td.exact_count(couplings, n, n, 0) == (k // 2, True)
    assert td.exact_count(couplings, n, 2 * n - 1, 1) == (k // 2, False)  # N - 1/2
    assert td.exact_count(couplings, n, 2 * n + 1, 1) == (k // 2 + 1, False)


def test_exact_count_is_the_dense_count_on_every_small_coupling_block():
    # zero-diagonal blocks, m = 1 and m = 2 among them: the dense count away from the eigenvalues, and
    # 0 flagged as the middle eigenvalue of an odd-size block
    dims = set()
    for n, r1, r2 in band_cases(12):
        for t in range(r2 + 1):
            block = coupling_matrix(n, r1, r2, t)
            couplings, m = list(block.offdiag_sq), block.dim
            dims.add(m)
            values = np.linalg.eigvalsh(td.dense(couplings, 0.0))
            gaps = [0.5 * (a + b) for a, b in zip(values, values[1:])]
            for x in [values[0] - 1.0, *gaps, values[-1] + 0.5]:
                if x != 0.0:
                    assert exact_count_at(couplings, 0, x) == (int((values < x).sum()), False), (n, r1, r2, t, x)
            if m % 2:
                assert td.exact_count(couplings, 0, 0, 0) == (m // 2, True), (n, r1, r2, t)
    assert {1, 2} <= dims


def sqrt_kernel_blocks():
    """Zero-diagonal integer blocks: every coupling block with n <= 12, 2J - N of small Krawtchouk
    Jacobi matrices, and random ones, m = 1 and m = 2 among each kind."""
    blocks = {tuple(coupling_matrix(n, r1, r2, t).offdiag_sq) for n, r1, r2 in band_cases(12)
              for t in range(r2 + 1)}
    blocks |= {tuple(jacobi_couplings(n, 0, k - 1).tolist()) for n in range(1, 13) for k in range(1, n + 1)}
    rng = np.random.default_rng(19)
    blocks |= {tuple(rng.integers(1, 30, size=m - 1).tolist()) for m in range(1, 9) for _ in range(40)}
    return sorted(blocks, key=lambda c: (len(c), c))


def test_exact_count_sqrt_is_exact_count_at_every_perfect_square():
    # at mu = k^2, sqrt(mu) = k is an integer point, which exact_count takes directly
    for couplings in sqrt_kernel_blocks():
        for k in range(1, 12):
            assert td.exact_count_sqrt(couplings, k * k) == td.exact_count(couplings, 0, k, 0), (couplings, k)


def test_exact_count_sqrt_is_the_dense_count():
    # the dense eigenvalues away from sqrt(mu) give the count, and one within 1e-9 of it the flag; every
    # block has an eigenvalue sqrt(mu) somewhere in the range (m = 2 has +-sqrt(c_1))
    flagged, lengths = 0, set()
    for couplings in sqrt_kernel_blocks():
        values = np.linalg.eigvalsh(td.dense(couplings, 0.0))
        lengths.add(len(couplings) + 1)
        for mu in range(1, 200):
            x = math.sqrt(mu)
            near = np.abs(values - x) < 1e-9
            count, is_eigenvalue = td.exact_count_sqrt(couplings, mu)
            assert count == int((values < x - 1e-9).sum()) and is_eigenvalue == near.any(), (couplings, mu)
            flagged += is_eigenvalue
    assert {1, 2} <= lengths and flagged > 100


def krawtchouk_guesses(n, m):
    # the couplings of the origin-0 block of the ball (n, 0, m) and the images 2x - n of the certified
    # roots of K_(m+1) over {0..n}, which lambda_set passes as its guesses
    off_sq = [float(v) for v in coupling_matrix(n, 0, m, 0).offdiag_sq]
    return off_sq, [2.0 * x - n for x in roots(n, m + 1).values]


def test_seeded_eigenvalues_all_keeps_the_bits_on_every_ball_block():
    # every r1 = 0 block that lambda_set seeds: origin t of the ball (n, 0, r) is block (n - 2t, r - t)
    blocks = [(n, m) for n in range(1, 65) for m in range(n // 2 + 1)]
    for n, m in blocks:
        off_sq, guesses = krawtchouk_guesses(n, m)
        assert td.eigenvalues_all(off_sq, 0.0, guesses=guesses) == td.eigenvalues_all(off_sq, 0.0), (n, m)
    assert len(blocks) == 1088


@pytest.mark.parametrize("n,m", [(2, 1), (7, 3), (20, 6), (41, 20), (64, 32)])
def test_seeded_eigenvalues_all_keeps_the_bits_under_bad_guesses(n, m):
    off_sq, good = krawtchouk_guesses(n, m)
    plain = td.eigenvalues_all(off_sq, 0.0)
    bad = [
        [math.nan] * len(good),
        [math.inf] * len(good),
        [-math.inf] * len(good),
        [2.0 * n + 1.0] * len(good),  # past the Gershgorin bracket
        [-2.0 * n - 1.0] * len(good),
        [g + 1e-6 for g in good],
        [g - 1e-6 for g in good],
        good[1:] + good[-1:],  # the next root up
        good[:1] + good[:-1],  # the next root down
    ]
    for guesses in bad:
        assert td.eigenvalues_all(off_sq, 0.0, guesses=guesses) == plain, guesses


def test_eigenvalues_all_takes_one_guess_per_eigenvalue():
    with pytest.raises(ValueError, match="2 guesses for dimension 3"):
        td.eigenvalues_all([2.0, 2.0], 0.0, guesses=[0.0, 1.0])


def test_the_krawtchouk_guesses_save_sweeps(monkeypatch):
    off_sq, guesses = krawtchouk_guesses(64, 32)
    calls = []
    count_below = td.count_below
    monkeypatch.setattr(td, "count_below", lambda *a, **kw: calls.append(a[2]) or count_below(*a, **kw))
    td.eigenvalues_all(off_sq, 0.0)
    plain = len(calls)
    calls.clear()
    td.eigenvalues_all(off_sq, 0.0, guesses=guesses)
    # 70 counts for the 33 eigenvalues, against 814 with the mirror guesses alone: about 46 for each
    # of the upper 17 from the Gershgorin bracket
    assert len(calls) <= 3 * 33 and 10 * len(calls) < plain
