"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import math

import numpy as np

from ballspec import bounds as bd
from ballspec import eigenfunctions as ef
from ballspec import spectrum as sp
from ballspec import tridiagonal
from ballspec.krawtchouk import RootList, _jacobi_matrix, build, eval_exact, first_root, roots
from helpers import cached_eigh, cached_graph, cached_oracle
from paper_checks import check_eigenspace_membership, check_reciprocity


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}".rstrip())


def test_criterion_1_oracle_equivalence_balls():
    worst = 0.0
    cases = 0
    for n in range(11):
        for r in range(n // 2 + 1):
            rep = sp.verify_against_oracle(n, 0, r, tol=1e-8)
            assert rep.passed, rep.summary()
            worst = max(worst, rep.max_deviation)
            cases += 1
    _report(1, "oracle equivalence, balls n<=10",
            f"[{cases} cases, max deviation {worst:.3e}]")


def test_criterion_2_oracle_equivalence_bands():
    worst = 0.0
    cases = 0
    for n in range(2, 10):
        for r2 in range(1, n // 2 + 1):
            for r1 in range(r2):
                rep = sp.verify_against_oracle(n, r1, r2, tol=1e-8)
                assert rep.passed, rep.summary()
                worst = max(worst, rep.max_deviation)
                cases += 1
    _report(2, "oracle equivalence, sphere unions n<=9",
            f"[{cases} cases, max deviation {worst:.3e}]")


def test_criterion_3_incidence_case():
    cases = 0
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            expected = []
            for t in range(r):
                gam = math.sqrt((r - t) * (n - r - t + 1))
                w = _binom(n, t) - _binom(n, t - 1)
                expected.append((-gam, w))
                expected.append((gam, w))
            zmult = _binom(n, r) - _binom(n, r - 1)
            if zmult:
                expected.append((0.0, zmult))
            expected.sort()

            table = sp.full_spectrum(n, r - 1, r)
            assert len(table.lines) == len(expected), (n, r)
            for (val, mult), line in zip(expected, table.lines):
                assert abs(val - line.value) <= 1e-8, (n, r, val, line.value)
                assert mult == line.multiplicity, (n, r, val)

            oracle = cached_oracle(n, r - 1, r).eigenvalues
            assert np.abs(table.expanded() - oracle).max() <= 1e-8, (n, r)
            cases += 1

    # the r = 1 instance in closed form: +-sqrt(n) simple, 0 with n-1
    for n in range(2, 13):
        table = sp.full_spectrum(n, 0, 1)
        vals = [line.value for line in table.lines]
        mults = [line.multiplicity for line in table.lines]
        assert abs(vals[0] + math.sqrt(n)) <= 1e-8
        assert abs(vals[-1] - math.sqrt(n)) <= 1e-8
        assert mults == [1, n - 1, 1]
    _report(3, "adjacent-sphere incidence closed form n<=12", f"[{cases} cases]")


def test_criterion_4_max_eigenvalue_and_perron():
    cases = 0
    for n in range(1, 13):
        for r in range(n // 2 + 1):
            g = cached_graph(n, 0, r)
            if g.vertex_count > 5000:
                continue
            oracle = cached_oracle(n, 0, r)
            lam_pred = n - 2.0 * first_root(n, r + 1)
            assert abs(oracle.eigenvalues[-1] - lam_pred) <= 1e-8, (n, r)
            vec = cached_eigh(n, 0, r)[1][:, -1]
            if vec[np.abs(vec).argmax()] < 0:
                vec = -vec
            assert (vec > 0).all(), (n, r)
            for i in range(r + 1):
                sphere = vec[g.sphere_slice(i)]
                spread = (sphere.max() - sphere.min()) / np.abs(sphere).max()
                assert spread <= 1e-8, (n, r, i, spread)
            cases += 1
    _report(4, "max eigenvalue identity + Perron n<=12", f"[{cases} cases]")


def _origin_samples(n, t):
    low = (1 << t) - 1
    high = low << (n - t) if t else 0
    return sorted({low, high})


def test_criterion_5_eigenfunction_synthesis():
    synth_count = 0
    shared_pairs = 0
    for n in range(1, 9):
        for r2 in range(n // 2 + 1):
            for r1 in range(r2 + 1):
                graph = cached_graph(n, r1, r2)
                by_value = {}
                for t in range(r2 + 1):
                    tstar = max(t, r1)
                    dim = r2 - tstar + 1
                    for y in _origin_samples(n, t):
                        for which in range(dim):
                            fn = ef.synthesize(n, r1, r2, t, y, which)
                            assert fn.residual <= 1e-8, (n, r1, r2, t, y, which)
                            for i in range(r1, tstar):
                                assert not fn.values[graph.sphere_slice(i)].any()
                            for i in range(tstar, r2 + 1):
                                restriction = fn.values[graph.sphere_slice(i)]
                                assert check_eigenspace_membership(n, i, t, restriction), \
                                    (n, r1, r2, t, y, which, i)
                            by_value.setdefault(round(fn.eigenvalue, 9), []).append(fn)
                            synth_count += 1
                for group in by_value.values():
                    for a in range(len(group)):
                        for b in range(a + 1, len(group)):
                            fa, fb = group[a], group[b]
                            if fa.t == fb.t:
                                continue
                            dot = abs(float(fa.values @ fb.values))
                            lim = 1e-8 * np.linalg.norm(fa.values) * np.linalg.norm(fb.values)
                            assert dot <= lim, (n, r1, r2, fa.t, fb.t, fa.eigenvalue)
                            shared_pairs += 1
    _report(5, "eigenfunction synthesis n<=8",
            f"[{synth_count} syntheses, {shared_pairs} cross-origin pairs]")


def test_criterion_6_exact_identities():
    for n in range(41):
        for r2 in range(n // 2 + 1):
            ball_lhs = sum(
                (_binom(n, t) - _binom(n, t - 1)) * (r2 - t + 1) for t in range(r2 + 1)
            )
            assert ball_lhs == sum(_binom(n, t) for t in range(r2 + 1))
            for r1 in range(r2 + 1):
                lhs = sum(
                    (_binom(n, t) - _binom(n, t - 1)) * (r2 - max(t, r1) + 1)
                    for t in range(r2 + 1)
                )
                assert lhs == sum(_binom(n, i) for i in range(r1, r2 + 1))

    for n in range(2, 21):
        polys = [build(n, k) for k in range(n + 1)]
        for k in range(2, n + 1):
            for x in range(n + 1):
                lhs = k * eval_exact(polys[k], x)
                rhs = (n - 2 * x) * eval_exact(polys[k - 1], x) \
                    - (n - k + 2) * eval_exact(polys[k - 2], x)
                assert lhs == rhs, (n, k, x)

    for n in range(21):
        for i in range(n + 1):
            for j in range(n + 1):
                assert check_reciprocity(n, i, j), (n, i, j)
    _report(6, "exact identities: dimensions n<=40, recurrence+reciprocity n<=20")


def test_criterion_7_root_properties():
    tol = 1e-12
    for n in range(1, 21):
        firsts = []
        for k in range(1, n + 1):
            rl = roots(n, k, tol)
            assert len(rl) == k
            firsts.append(rl.values[0])

            for i in range(k):
                mirror = rl.values[i] + rl.values[k - 1 - i]
                assert abs(mirror - n) <= 2 * tol + 1e-12, (n, k, i)

            for i in range(k - 1):
                lo = rl.values[i] - rl.radius[i]
                hi = rl.values[i + 1] + rl.radius[i + 1]
                assert math.ceil(lo) <= math.floor(hi), (n, k, i)

            jac = RootList(*map(tuple, tridiagonal.eigenvalues_all(*_jacobi_matrix(n, k))))
            for va, ra, vb, rb in zip(rl.values, rl.radius, jac.values, jac.radius):
                assert abs(va - vb) <= ra + rb + 1e-13, (n, k)

        assert all(a > b for a, b in zip(firsts, firsts[1:])), n
    _report(7, "root properties n<=20: symmetry, interlacing, monotonicity, two paths")


def test_criterion_8_bounds_regime():
    ratios = []
    for n in (10**3, 10**4, 10**5):
        v = n**0.6
        if abs(v - round(v)) < 1e-9:
            v = round(v)
        bits = math.ceil(v)
        rep = bd.ball_bound(n, float(n - bits))
        ratios.append(rep.delta_upper / (bits * math.log(2)))
    assert ratios[0] > ratios[1] > ratios[2], ratios
    assert all(r > 1.0 for r in ratios), ratios  # boundary upper bound stays above ln(2^n/s)

    checked = 0
    for n in range(2, 13):
        for t0 in range(n // 2 + 1):
            size = sum(_binom(n, i) for i in range(t0 + 1))
            log2_s = math.log2(size)
            if not 1.0 <= log2_s <= n - 1:
                continue
            rep = bd.ball_bound(n, log2_s)
            lam_oracle = cached_oracle(n, 0, rep.t).eigenvalues[-1]
            assert abs(rep.lambda_lower - lam_oracle) <= 1e-8, (n, t0, rep.t)
            checked += 1
    _report(8, "bounds regime: decreasing ratio schedule + oracle ties",
            f"[ratios {ratios[0]:.4f} > {ratios[1]:.4f} > {ratios[2]:.4f}, "
            f"{checked} realizable cardinalities]")
