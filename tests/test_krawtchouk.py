import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import paper_checks as pc
from ballspec import krawtchouk as kw
from ballspec import spectrum as sp
from ballspec import tridiagonal
from ballspec.errors import InvalidDegreeError, InvalidParameterError


def test_build_4_2_matches_defining_sum():
    p = kw.build(4, 2)
    assert [int(kw.eval_exact(p, x)) for x in range(5)] == [6, 0, -2, 0, 6]


@pytest.mark.parametrize("n", [0, 1, 3, 7, 12])
def test_build_degree_zero_is_constant_one(n):
    p = kw.build(n, 0)
    assert p.coeffs == (1,) and p.scale == 1


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_build_degree_one_is_n_minus_2x(n):
    p = kw.build(n, 1)
    assert p.coeffs == (n, -2) and p.scale == 1


def test_build_agrees_with_defining_sum_everywhere():
    # includes integer points outside [0, N]: both sides are polynomials
    for n in range(13):
        for k in range(n + 1):
            p = kw.build(n, k)
            for x in range(-2, n + 3):
                assert p.eval_scaled(x) == p.scale * pc.defining_sum(n, k, x)


@pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 1)])
def test_build_invalid_degree(n, k):
    with pytest.raises(InvalidDegreeError):
        kw.build(n, k)


@pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 1), (5, 0), (0, 0), (-1, 0)])
def test_roots_invalid_degree(n, k):
    with pytest.raises(InvalidDegreeError):
        kw.roots(n, k)


def test_leading_coefficient():
    for n in range(1, 11):
        for k in range(n + 1):
            p = kw.build(n, k)
            assert Fraction(p.coeffs[-1], p.scale) == Fraction((-2) ** k, math.factorial(k))
            assert p.coeffs[-1] == (-2) ** k


def test_eval_exact_examples():
    assert kw.eval_exact(kw.build(4, 3), 2) == 0
    assert kw.eval_exact(kw.build(4, 2), 2) == -2
    for n in range(1, 12):
        for k in range(n + 1):
            assert kw.eval_exact(kw.build(n, k), 0) == math.comb(n, k)


def test_roots_4_2():
    rl = kw.roots(4, 2)
    assert rl.values == (1.0, 3.0)


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_roots_degree_one(n):
    rl = kw.roots(n, 1)
    assert len(rl) == 1
    assert rl.values[0] == pytest.approx(n / 2, abs=1e-12)


def test_roots_4_3():
    rl = kw.roots(4, 3)
    assert rl.values[1] == 2.0
    assert rl.values[0] == pytest.approx(2 - math.sqrt(2.5), abs=1e-12)
    assert rl.values[2] == pytest.approx(2 + math.sqrt(2.5), abs=1e-12)


def test_roots_certified_by_exact_sign_change():
    """The exact polynomial changes sign across every inexact certified interval."""
    for n, k in [(7, 3), (10, 4), (13, 6), (16, 5)]:
        p = kw.build(n, k)

        def value_at(q: Fraction) -> Fraction:
            acc = Fraction(0)
            for c in reversed(p.coeffs):
                acc = acc * q + c
            return acc

        rl = kw.roots(n, k)
        for v, rad in zip(rl.values, rl.radius):
            lo = value_at(Fraction(v) - Fraction(rad))
            hi = value_at(Fraction(v) + Fraction(rad))
            if lo == 0 or hi == 0:
                continue  # exact root sitting on an endpoint
            assert (lo < 0) != (hi < 0), (n, k, v)


def test_roots_count_and_interval():
    for n in range(1, 15):
        for k in range(1, n + 1):
            rl = kw.roots(n, k)
            assert len(rl) == k
            assert 0.0 < rl.values[0] and rl.values[-1] < n


def counting_counts(monkeypatch):
    # patch the exact Sturm count to record the grid level of each call
    calls = []
    exact_count = tridiagonal.exact_count

    def counting(couplings, d, num, e):
        calls.append(e)
        return exact_count(couplings, d, num, e)

    monkeypatch.setattr(tridiagonal, "exact_count", counting)
    return calls


def guessing(monkeypatch, guesses):
    # hand roots() these guesses, one per rank, in place of the Jacobi eigenvalues
    monkeypatch.setattr(kw, "_root_guesses", lambda n, k: list(guesses))


# (N, k) with an integer root (even N, odd k: N/2), a half-integer root (odd N, odd k: N/2), both kinds
# of symmetry, and degrees with only inexact roots
BISECT_CASES = [(4, 3), (9, 3), (12, 5), (13, 7), (16, 5), (21, 10), (40, 13), (64, 33)]


@pytest.mark.parametrize("n,k", BISECT_CASES)
@pytest.mark.parametrize("tol", [kw.DEFAULT_TOL, 1e-5, 0.25])
def test_bisect_bracket_keeps_the_bits_for_any_guess(n, k, tol, monkeypatch):
    # each root's search on the dyadic grid ends on the same bits whatever guess it starts from
    plain = kw.roots(n, k, tol)
    level = max(2, math.ceil(-math.log2(tol)))
    unit = 2.0 ** -level
    exact = [v for v, r in zip(plain.values, plain.radius) if r == math.ulp(max(1.0, v))]
    integer_roots = [v for v in exact if v == int(v)]
    assert integer_roots or n % 2
    guesses = {
        "nan": [math.nan] * k, "inf": [math.inf] * k, "-inf": [-math.inf] * k, "far": [1e300] * k,
        "unit interval's left end": [float(math.floor(v)) for v in plain.values],
        "unit interval's right end": [float(math.floor(v) + 1) for v in plain.values],
        "unit interval below": [math.floor(v) - 0.5 for v in plain.values],
        "unit interval above": [math.floor(v) + 1.5 for v in plain.values],
        "next dyadic interval up": [v + unit for v in plain.values],
        "next dyadic interval down": [v - unit for v in plain.values],
        "N/2": [n / 2] * k, **{f"integer root {r}": [r] * k for r in integer_roots},
    }
    calls = counting_counts(monkeypatch)
    for name, guess in guesses.items():
        guessing(monkeypatch, guess)
        assert kw.roots(n, k, tol) == plain, (n, k, name)
    # a right guess costs two counts at the final level, the ends of its interval; one for an exact root
    guessing(monkeypatch, plain.values)
    calls.clear()
    assert kw.roots(n, k, tol) == plain
    assert calls == [level - 1] * (2 * k - len(exact)), (n, k)
    # a guess one interval up finds the root's interval below its own in two counts; one down takes three
    # for an inexact root (fewer when the root's interval starts at 0) and two for an exact one
    guessing(monkeypatch, guesses["next dyadic interval up"])
    calls.clear()
    assert kw.roots(n, k, tol) == plain
    assert len(calls) == 2 * k, (n, k)
    guessing(monkeypatch, guesses["next dyadic interval down"])
    calls.clear()
    assert kw.roots(n, k, tol) == plain
    assert len(calls) <= 3 * k - len(exact), (n, k)


@pytest.mark.parametrize("n,k", [(9, 3), (13, 7), (21, 5), (63, 31)])
def test_bisect_bracket_on_the_half_integer_root(n, k, monkeypatch):
    # for odd N and odd k, N/2 is the middle root; it comes out exact, with a one-ulp radius, for the
    # Jacobi guess, a guess on it and a guess just below it
    i = k // 2
    for tol in (kw.DEFAULT_TOL, 0.25):
        plain = kw.roots(n, k, tol)
        assert (plain.values[i], plain.radius[i]) == (n / 2, math.ulp(n / 2))
        for guess in (n / 2, math.nextafter(n / 2, 0.0)):
            guessing(monkeypatch, [*plain.values[:i], guess, *plain.values[i + 1:]])
            assert kw.roots(n, k, tol) == plain, (n, k, tol, guess)
        monkeypatch.undo()


def test_roots_are_the_unseeded_roots_bit_for_bit(monkeypatch):
    seeded = {(n, k): kw.roots(n, k) for n in range(1, 31) for k in range(1, n + 1)}
    calls = counting_counts(monkeypatch)
    for n in range(1, 31):
        for k in range(1, n + 1):
            kw.roots(n, k)
    seeded_calls = len(calls)
    monkeypatch.setattr(kw, "_root_guesses", lambda n, k: [math.nan] * k)
    calls.clear()
    for (n, k), rl in seeded.items():
        assert kw.roots(n, k) == rl, (n, k)
    # the guesses save most of the exact counts (measured: 9,629 against 208,940)
    assert seeded_calls <= 9629 and len(calls) <= 208940
    assert seeded_calls < len(calls) / 20


def test_roots_up_to_64_keep_their_bits_and_rarely_halve(monkeypatch):
    # all 2,080 RootLists with N <= 64, by float.hex: the pinned digest of the roots of the exact polynomial
    # sign bisection that the exact counts replaced
    calls = counting_counts(monkeypatch)
    digest = hashlib.sha256()
    roots = 0
    for n in range(1, 65):
        for k in range(1, n + 1):
            rl = kw.roots(n, k)
            roots += len(rl)
            digest.update(repr(([v.hex() for v in rl.values], [r.hex() for r in rl.radius])).encode())
    assert digest.hexdigest() == "20852ba36235897714a71039c39bcbfe177469ce5cc5cfe2fdc839bc1d7bf54a"
    # measured: 90,401 exact counts for the 45,760 roots, under 2 per root, as few guesses miss
    assert roots == 45760 and len(calls) <= 90401


# roots whose guess sits in the next unit interval, across the integer nearest the root, as 38 of the
# 44,576 inexact roots with N <= 64 do; the first is at (50, 50), where the root 2^-41 has a guess
# just below 0; each with the measured exact counts of its whole RootList as a budget
EDGE_CASES = {(50, 50, 0): 98, (54, 54, 53): 106, (58, 58, 1): 115, (61, 61, 2): 120, (63, 63, 62): 125,
              (64, 63, 63): 123}


@pytest.mark.parametrize("n,k,left", EDGE_CASES)
def test_a_guess_across_an_integer_takes_the_brackets_edge_interval(n, k, left, monkeypatch):
    plain = kw.roots(n, k)
    (i,) = [i for i, v in enumerate(plain.values) if left < v < left + 1]
    guess = kw._root_guesses(n, k)[i]
    assert not left < guess < left + 1 and abs(guess - round(guess)) < 1e-12
    # the root's search lands in the edge interval of its unit interval within three counts: the ends of
    # the guess's own interval, clipped to the roots' range (0, N), and the far end of the neighbour
    guessing(monkeypatch, [math.nan] * k)
    assert kw.roots(n, k) == plain  # the bits of the unseeded search
    monkeypatch.undo()
    calls = counting_counts(monkeypatch)
    search = kw._root_of_rank
    per_rank = {}

    def recording(couplings, n, rank, *args):
        before = len(calls)
        found = search(couplings, n, rank, *args)
        per_rank[rank] = len(calls) - before
        return found

    monkeypatch.setattr(kw, "_root_of_rank", recording)
    assert kw.roots(n, k) == plain
    assert per_rank[i] <= 3 and len(calls) <= EDGE_CASES[n, k, left], (per_rank[i], len(calls))
    level = 40  # the first e >= 2 with 2^-e <= DEFAULT_TOL
    assert math.floor(plain.values[i] * 2**level) in (left << level, ((left + 1) << level) - 1)


@pytest.mark.parametrize("tol", [kw.DEFAULT_TOL, 1e-5])
def test_first_root_up_to_64_is_the_smallest_certified_root(tol):
    # first_root searches rank 0 alone; each rank is searched on its own, so it has the same bits
    for n in range(1, kw.EXACT_COEFF_LIMIT + 1):
        for k in range(1, n + 1):
            assert kw.first_root(n, k, tol) == kw.roots(n, k, tol).values[0], (n, k)


def test_certified_roots_need_no_coefficients(monkeypatch):
    # first_root, and lambda_set's cross-check, read only N and k
    expected = (kw.first_root(20, 7), sp.lambda_set(12, 0, 5, 1))
    monkeypatch.setattr(kw, "build", lambda *a: pytest.fail("built the coefficients"))
    assert (kw.first_root(20, 7), sp.lambda_set(12, 0, 5, 1)) == expected


def test_first_root_examples():
    assert kw.first_root(4, 2) == pytest.approx(1.0, abs=1e-12)
    assert kw.first_root(6, 1) == pytest.approx(3.0, abs=1e-12)
    assert kw.first_root(4, 3) == pytest.approx(2 - math.sqrt(2.5), abs=1e-11)


def test_first_root_degenerate_dimension_convention():
    assert kw.first_root(0, 1) == 0.0


@pytest.mark.parametrize("k", [5, 0, -3])
def test_first_root_at_zero_dimension_needs_degree_one(k):
    with pytest.raises(InvalidDegreeError):
        kw.first_root(0, k)


@pytest.mark.parametrize("tol", [math.nan, 0.0])
def test_first_root_at_zero_dimension_checks_tolerance(tol):
    with pytest.raises(InvalidParameterError):
        kw.first_root(0, 1, tol)


def test_first_root_large_dimension_uses_jacobi_path():
    # straddle the exact-coefficient threshold; the two paths must line up
    at_limit = kw.first_root(64, 5)
    jacobi = kw.RootList(*map(tuple, tridiagonal.eigenvalues_all(*kw._jacobi_matrix(64, 5))))
    assert at_limit == pytest.approx(jacobi.values[0], abs=1e-11)
    beyond = kw.first_root(65, 5)
    assert at_limit < beyond < 65  # roots shift up with the ambient dimension
    # the linear case has a closed form at any size
    assert kw.first_root(10**5, 1) == pytest.approx(5e4, rel=1e-12)


# the degrees bounds_large_n solves on the Jacobi path, by ambient dimension
BOUNDS_DEGREES = {
    10**4: (1101, 1893, 3161, 4412),
    10**5: (1299, 5324, 11003, 18930, 31602, 44120),
}


def random_degrees(count, seed):
    # (N, k) with 65 <= N <= 10^4 and 1 <= k <= N, drawn once from a fixed seed
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(65, 10**4)
        cases.append((n, rng.randint(1, n)))
    return cases


def jacobi(n, k):
    # the couplings as first_root builds them: the list, the float64 array, and the diagonal
    array = kw._jacobi_off_sq(n, k)
    return array.tolist(), array, n / 2.0


@pytest.mark.parametrize("n", [65, 300, 1000, 10**4, 10**5])
def test_first_root_is_the_unseeded_bisection_bit_for_bit(n):
    # k = 1, small, ~N/3, the off-diagonal peak N//2 + 1, just past it, N
    for k in sorted({1, 7, n // 3, n // 2 + 1, n // 2 + 2, n, *BOUNDS_DEGREES.get(n, ())}):
        plain, _ = tridiagonal.eigenvalue_k(*kw._jacobi_matrix(n, k), 0, kw.DEFAULT_TOL)
        assert kw.first_root(n, k) == plain, (n, k)


@pytest.mark.parametrize("n,k", random_degrees(20, 14))
def test_first_root_is_the_unseeded_bisection_at_random_degrees(n, k):
    plain, _ = tridiagonal.eigenvalue_k(*kw._jacobi_matrix(n, k), 0, kw.DEFAULT_TOL)
    assert kw.first_root(n, k) == plain, (n, k)


def count_rows(monkeypatch):
    # patch count_below and the Newton sweep to record the rows of every sweep
    sweeps, newton = [], []
    count_below, log_det_slope = tridiagonal.count_below, kw._log_det_slope

    def counting(off_sq, d, x, **kwargs):
        sweeps.append(len(off_sq) + 1)
        return count_below(off_sq, d, x, **kwargs)

    def newton_counting(off_sq, d, x):
        newton.append(len(off_sq) + 1)
        return log_det_slope(off_sq, d, x)

    monkeypatch.setattr(tridiagonal, "count_below", counting)
    monkeypatch.setattr(kw, "_log_det_slope", newton_counting)
    return sweeps, newton


def windows_refined(n, k, monkeypatch):
    # the (off_sq, array, d, start) of every window first_root hands to _window_root
    seen = []
    window_root = kw._window_root

    def spying(off_sq, array, d, below, tol):
        seen.append((off_sq, array, d, below))
        return window_root(off_sq, array, d, below, tol)

    with monkeypatch.context() as m:
        m.setattr(kw, "_window_root", spying)
        kw.first_root(n, k)
    return seen


def assert_last_float_below(off_sq, d, g):
    # g is the last float at which the Sturm count of the matrix is still 0
    assert tridiagonal.count_below(off_sq, d, g) == 0, g
    assert tridiagonal.count_below(off_sq, d, math.nextafter(g, math.inf)) >= 1, g


def test_first_root_sweeps_the_full_matrix_only_a_few_times(monkeypatch):
    sweeps, newton = count_rows(monkeypatch)
    # rows swept, Newton's included, measured: 2.79 k and 6.60 k
    for n, k, budget in ((10**5, 44120, 2.8), (10**4, 1100, 6.7)):
        sweeps.clear()
        newton.clear()
        kw.first_root(n, k)
        assert sweeps.count(k) == 2, (n, k)  # plain bisection from Gershgorin takes 56
        assert sum(sweeps) + sum(newton) < budget * k, (n, k)
    for n, degrees in BOUNDS_DEGREES.items():
        for k in degrees:
            sweeps.clear()
            kw.first_root(n, k)
            assert sweeps.count(k) == 2, (n, k)
            # the final window is the widest one: the gallop alone, measured 3-9
            assert sweeps.count(max(m for m in sweeps if m < k)) <= 9, (n, k)


@pytest.mark.parametrize("n,k", [(1000, 600), (10**4, 5002), (10**5, 60000)])
def test_first_root_past_the_peak_sweeps_the_full_matrix_only_a_few_times(n, k, monkeypatch):
    # past row N//2 + 1 the windows are centred on the off-diagonals' peak; ending them there took
    # 40-43 full sweeps, measured now: 2
    plain, _ = tridiagonal.eigenvalue_k(*kw._jacobi_matrix(n, k), 0, kw.DEFAULT_TOL)
    sweeps, _ = count_rows(monkeypatch)
    assert kw.first_root(n, k) == plain
    assert sweeps.count(k) <= 4


@pytest.mark.parametrize("n,k", [(n, k) for n, ks in BOUNDS_DEGREES.items() for k in ks])
def test_every_bracket_and_pivot_floor_comes_from_the_array_with_the_list_bits(n, k, monkeypatch):
    # every matrix first_root solves, the full one and each window, takes its Gershgorin bracket and
    # pivot floor from a float64 array (no pass over a Python list) and sweeps the same slice as a list
    solves, brackets, floors = [], [], []
    eigenvalue_k, gershgorin, pivot_floor = tridiagonal.eigenvalue_k, tridiagonal._gershgorin, tridiagonal._pivot_floor

    def solving(off_sq, *args, **kwargs):
        solves.append((off_sq, kwargs.get("array")))
        return eigenvalue_k(off_sq, *args, **kwargs)

    def bracketing(off_sq, d):
        brackets.append((off_sq, d))
        return gershgorin(off_sq, d)

    def flooring(off_sq):
        floors.append(off_sq)
        return pivot_floor(off_sq)

    plain, _ = eigenvalue_k(*kw._jacobi_matrix(n, k), 0)
    monkeypatch.setattr(tridiagonal, "eigenvalue_k", solving)
    monkeypatch.setattr(tridiagonal, "_gershgorin", bracketing)
    monkeypatch.setattr(tridiagonal, "_pivot_floor", flooring)
    assert kw.first_root(n, k) == plain
    assert len(solves) >= 2 and len(brackets) == len(solves) and len(floors) >= len(solves) + 1
    assert max(len(off_sq) for off_sq, _ in solves) == k - 1
    for off_sq, array in solves:
        assert isinstance(array, np.ndarray) and array.dtype == np.float64
        assert array.tolist() == off_sq
    for array, d in brackets:
        assert isinstance(array, np.ndarray), (n, k)
        assert [x.hex() for x in gershgorin(array, d)] == [x.hex() for x in gershgorin(array.tolist(), d)]
    for array in floors:
        assert isinstance(array, np.ndarray), (n, k)
        assert pivot_floor(array).hex() == pivot_floor(array.tolist()).hex()


# (N, k) where no two coarse windows agree, so _window_guess solves the widest window;
# plain bisection sweeps 51-52 times
WINDOWS_NEVER_AGREE = [(3000, 1154), (3000, 1300), (3000, 1501), (10**4, 2044), (4096, 2049)]


@pytest.mark.parametrize("n,k", WINDOWS_NEVER_AGREE)
def test_first_root_guesses_when_the_windows_never_agree(n, k, monkeypatch):
    off_sq, array, d = jacobi(n, k)
    plain, _ = tridiagonal.eigenvalue_k(off_sq, d, 0, kw.DEFAULT_TOL)
    # the guess is the last float below the widest window, 4w rows for the largest 8w <= k
    end, rows = min(k, n // 2 + 1), 4 * 64 * 2 ** int(math.log2(k // 512))
    window = off_sq[end - rows:end - 1]
    assert_last_float_below(window, d, kw._window_guess(n, k, off_sq, array, d, kw.DEFAULT_TOL))
    (refined, refined_array, _, _), = windows_refined(n, k, monkeypatch)
    assert refined == window and refined_array.tolist() == window
    sweeps, _ = count_rows(monkeypatch)
    assert kw.first_root(n, k) == plain
    assert sweeps.count(k) == 2


@pytest.mark.parametrize("n,k", [(3000, 1154), (10**4, 2044)])
def test_widest_window_newton_starts_near_its_root(n, k, monkeypatch):
    # from the Gershgorin bottom Newton took 18 and 19 sweeps of the 512-row window; measured now: 4
    off_sq, d = kw._jacobi_matrix(n, k)
    plain, _ = tridiagonal.eigenvalue_k(off_sq, d, 0, kw.DEFAULT_TOL)
    (window_off_sq, _, _, below), = windows_refined(n, k, monkeypatch)
    assert below > d - 2.0 * math.sqrt(max(window_off_sq))  # not the Gershgorin bottom
    _, newton = count_rows(monkeypatch)
    assert kw.first_root(n, k) == plain
    assert newton == [512] * len(newton) and len(newton) <= 6


def test_widest_window_needs_k_at_least_512():
    off_sq, array, d = jacobi(1000, 511)
    assert kw._window_guess(1000, 511, off_sq, array, d, kw.DEFAULT_TOL) is None


def jacobi_matrix_loop(n, k):
    # the Jacobi matrix as a list comprehension: the reference the numpy one must match bit for bit
    return [(j - 1) * (n - j + 2) / 4.0 for j in range(2, k + 1)], n / 2.0


@pytest.mark.parametrize("n,k", [
    (65, 1), (65, 65), (1000, 781), (10**4, 5002), (10**5, 44120), (10**5, 10**5),
    (2**33, 5), (10**19, 3),  # past int64: exact Python ints
])
def test_jacobi_matrix_matches_the_list_comprehension(n, k):
    off_sq, d = kw._jacobi_matrix(n, k)
    ref_off_sq, ref_d = jacobi_matrix_loop(n, k)
    assert len(off_sq) == k - 1
    assert d == ref_d and off_sq == ref_off_sq
    assert all(type(v) is float for v in [d, *off_sq])
    array = kw._jacobi_off_sq(n, k)
    assert array.dtype == np.float64 and array.tolist() == ref_off_sq


def final_window_unseeded(n, k, off_sq, d, tol):
    # the couplings of the window _window_guess refines, found by unseeded coarse solves, or None
    if k < 512:
        return None

    def window(w):
        # w rows ending at row k, or centred on row N//2 + 1 (clipped to the k rows) when k is past it
        peak = n // 2 + 1
        end = k if k <= peak else min(k, peak + w // 2)
        return off_sq[end - w:end - 1]

    coarse = max(tol, 1e-6 * n)
    w, prev = 64, math.inf
    while 8 * w <= k:
        cur, _ = tridiagonal.eigenvalue_k(window(w), d, 0, coarse)
        if abs(prev - cur) <= 2.0 * coarse:
            break
        prev, w = cur, 2 * w
    else:
        w //= 2  # the widest window
    return window(4 * w)


@pytest.mark.parametrize("n,k,tol", [
    (10**5, 44120, kw.DEFAULT_TOL),
    (10**5, 50002, kw.DEFAULT_TOL),
    (10**5, 44120, 1e-6),
    (10**4, 1100, kw.DEFAULT_TOL),
    (10**4, 5002, kw.DEFAULT_TOL),
    (4096, 2049, kw.DEFAULT_TOL),  # the windows never agree: the widest one
    (1000, 600, kw.DEFAULT_TOL),  # one coarse window, then the widest one from its Gershgorin bottom
    (1000, 511, kw.DEFAULT_TOL),  # no window: no guess
])
def test_window_guess_matches_the_unseeded_windows(n, k, tol):
    off_sq, array, d = jacobi(n, k)
    got = kw._window_guess(n, k, off_sq, array, d, tol)
    window = final_window_unseeded(n, k, off_sq, d, tol)
    if window is None:
        assert got is None
    else:
        assert_last_float_below(window, d, got)


NEWTON_LANDINGS = {
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    "-inf": lambda x: -math.inf,
    "far above": lambda x: x + 1.0,
    "1e-3 above": lambda x: x + 1e-3,
    "1e-3 below": lambda x: x - 1e-3,
}


@pytest.mark.parametrize("landing", NEWTON_LANDINGS)
def test_a_bad_newton_landing_keeps_the_bits(landing, monkeypatch):
    newton = kw._newton_from_below
    monkeypatch.setattr(kw, "_newton_from_below",
                        lambda off_sq, d, x: NEWTON_LANDINGS[landing](newton(off_sq, d, x)))
    sweeps, _ = count_rows(monkeypatch)
    for n, k, tol in [(10**5, 44120, kw.DEFAULT_TOL), (10**5, 44120, 1e-6), (10**4, 1100, kw.DEFAULT_TOL),
                      (10**4, 5002, kw.DEFAULT_TOL), (10**4, 2044, kw.DEFAULT_TOL)]:
        off_sq, array, d = jacobi(n, k)
        # every landing here is not finite or more than 2**_GALLOP units off, so the gallop gives up
        # and the guess is the window's own certified bisection, its unseeded value
        window = final_window_unseeded(n, k, off_sq, d, tol)
        window_plain, _ = tridiagonal.eigenvalue_k(window, d, 0, tol)
        assert kw._window_guess(n, k, off_sq, array, d, tol) == window_plain, (n, k, tol)
        plain, _ = tridiagonal.eigenvalue_k(off_sq, d, 0, tol)
        sweeps.clear()
        assert kw.first_root(n, k, tol) == plain, (n, k, tol)
        # the bad landing costs window sweeps only, past the off-diagonal peak too
        assert sweeps.count(k) == 2, (n, k, tol)


@pytest.mark.parametrize("n,k", [(n, k) for n, ks in BOUNDS_DEGREES.items() for k in ks] + WINDOWS_NEVER_AGREE)
def test_newton_lands_within_a_unit_and_the_gallop_on_the_switch(n, k, monkeypatch):
    (off_sq, array, d, below), = windows_refined(n, k, monkeypatch)
    pivmin = tridiagonal._pivot_floor(array)

    def count(x):
        return tridiagonal.count_below(off_sq, d, x)

    assert count(below) == 0
    x = kw._newton_from_below(off_sq, d, below)
    unit = kw._unit(d, x)
    last = kw._last_float_below(off_sq, d, x, pivmin)
    assert count(last) == 0 and count(math.nextafter(last, math.inf)) == 1
    assert below < x and abs(x - last) <= unit
    # from anywhere within 2**_GALLOP units, and from the switch itself
    for start in (last, math.nextafter(last, math.inf), x - 3 * unit, x + 5 * unit, x + 1000 * unit):
        assert kw._last_float_below(off_sq, d, start, pivmin) == last
    for start in (math.nan, math.inf, -math.inf, x + 2.0 ** (kw._GALLOP + 1) * unit):
        assert kw._last_float_below(off_sq, d, start, pivmin) is None
    # the switch float is the window's value: the guess for the full matrix
    assert kw._window_root(off_sq, array, d, below, kw.DEFAULT_TOL) == last


FIRST_ROOT_PROOFS = [(1000, 600), (3000, 1154), (4096, 2049), (10**4, 1100), (10**4, 4412)]


@pytest.mark.parametrize("n,k", FIRST_ROOT_PROOFS)
def test_first_root_interval_is_proven_by_exact_sturm_counts(n, k):
    # the certified interval [v - r, v + r] of the smallest Jacobi eigenvalue holds it: the integer
    # minors count no eigenvalue below v - r and at least one below v + r
    value, radius = tridiagonal.eigenvalue_k(*kw._jacobi_matrix(n, k), 0)
    assert pc.exact_count_below(n, k, value - radius) == 0
    assert pc.exact_count_below(n, k, value + radius) >= 1
    assert kw.first_root(n, k) == value


def test_exact_count_below_is_the_float_count_away_from_the_eigenvalues():
    for n, k in [(1, 1), (7, 3), (20, 7), (64, 40), (300, 120)]:
        off_sq, d = kw._jacobi_matrix(n, k)
        values = np.linalg.eigvalsh(tridiagonal.dense(off_sq, d))
        # off the eigenvalues of every leading block too: N/2 is one of each odd block's
        for x in [-1.0, 0.1, *(a + 0.3 * (b - a) for a, b in zip(values, values[1:])), n + 1.0]:
            assert pc.exact_count_below(n, k, x) == tridiagonal.count_below(off_sq, d, x), (n, k, x)
    with pytest.raises(ArithmeticError):
        pc.exact_count_below(10, 3, 5.0)  # the 1 x 1 leading block is N/2


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_bad_tolerance_is_rejected(tol):
    # the Jacobi path; the exact-root path, which a NaN would hang, is run
    # under a timeout in test_cli
    with pytest.raises(InvalidParameterError):
        kw.first_root(100, 5, tol)


def test_roots_tolerance_above_quarter_is_clamped():
    assert kw.roots(30, 7, 1.0) == kw.roots(30, 7, 0.25)


def test_check_reciprocity_examples():
    assert pc.check_reciprocity(4, 2, 1)
    assert pc.check_reciprocity(4, 3, 2)
    for n in range(1, 10):
        for j in range(n + 1):
            assert pc.check_reciprocity(n, 0, j)


def test_recurrence_consistency_small():
    for n in range(2, 13):
        for k in range(2, n + 1):
            pk = kw.build(n, k)
            pk1 = kw.build(n, k - 1)
            pk2 = kw.build(n, k - 2)
            for x in range(n + 1):
                lhs = k * kw.eval_exact(pk, x)
                rhs = (n - 2 * x) * kw.eval_exact(pk1, x) - (n - k + 2) * kw.eval_exact(pk2, x)
                assert lhs == rhs


def test_root_symmetry_about_half():
    tol = 1e-12
    for n in range(2, 15):
        for k in range(1, n + 1):
            vals = kw.roots(n, k, tol).values
            for i in range(k):
                assert abs(vals[i] + vals[k - 1 - i] - n) <= 2 * tol + 1e-13


def test_integer_between_consecutive_roots():
    for n in range(2, 15):
        for k in range(2, n + 1):
            rl = kw.roots(n, k)
            for i in range(k - 1):
                lo = rl.values[i] - rl.radius[i]
                hi = rl.values[i + 1] + rl.radius[i + 1]
                assert math.ceil(lo) <= math.floor(hi), (n, k, i)


def test_first_root_strictly_decreasing():
    for n in range(2, 15):
        seq = [kw.first_root(n, k) for k in range(1, n + 1)]
        assert all(a > b for a, b in zip(seq, seq[1:]))


def test_polynomial_vs_jacobi_paths_agree():
    for n in range(1, 13):
        for k in range(1, n + 1):
            a = kw.roots(n, k)
            b = kw.RootList(*map(tuple, tridiagonal.eigenvalues_all(*kw._jacobi_matrix(n, k))))
            for va, ra, vb, rb in zip(a.values, a.radius, b.values, b.radius):
                assert abs(va - vb) <= ra + rb + 1e-13
