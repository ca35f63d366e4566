import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ballspec import hamming as hm
from ballspec import spectrum as sp
from ballspec import tridiagonal as td
from ballspec.errors import InvalidParameterError
from helpers import band_cases, cached_oracle, exact_count_at


def test_lambda_set_ball_4_0_2():
    assert sp.lambda_set(4, 0, 2, 0).values == pytest.approx(
        (-math.sqrt(10), 0.0, math.sqrt(10)), abs=1e-11
    )
    assert sp.lambda_set(4, 0, 2, 1).values == pytest.approx(
        (-math.sqrt(2), math.sqrt(2)), abs=1e-11
    )
    assert sp.lambda_set(4, 0, 2, 2).values == (0.0,)


def test_lambda_set_adjacent_spheres_closed_form():
    for n, r in [(4, 2), (6, 3), (9, 4)]:
        for t in range(r):
            gam = math.sqrt((r - t) * (n - r - t + 1))
            assert sp.lambda_set(n, r - 1, r, t).values == pytest.approx(
                (-gam, gam), abs=1e-11
            )
        assert sp.lambda_set(n, r - 1, r, r).values == (0.0,)


def test_lambda_set_middle_eigenvalue_is_exact_zero():
    vals = sp.lambda_set(6, 0, 3, 0).values  # dimension 4 block: no zero
    assert 0.0 not in vals
    vals = sp.lambda_set(6, 0, 2, 0).values  # dimension 3 block: exact zero
    assert vals[1] == 0.0


def test_coupling_matrix_entries():
    block = sp.coupling_matrix(4, 0, 2, 0)
    assert block.dim == 3 and block.offdiag_sq == (4, 6)
    block = sp.coupling_matrix(6, 1, 3, 0)
    assert block.tstar == 1 and block.dim == 3 and block.offdiag_sq == (10, 12)
    block = sp.coupling_matrix(6, 2, 3, 1)
    assert block.dim == 2 and block.offdiag_sq == (6,)


def test_full_spectrum_star():
    tab = sp.full_spectrum(4, 0, 1)
    got = [(line.value, line.multiplicity, line.contributors) for line in tab.lines]
    assert got[0][0] == pytest.approx(-2.0, abs=1e-11)
    assert got == [
        (pytest.approx(-2.0, abs=1e-11), 1, (0,)),
        (0.0, 3, (1,)),
        (pytest.approx(2.0, abs=1e-11), 1, (0,)),
    ]


def test_full_spectrum_ball_4_0_2():
    tab = sp.full_spectrum(4, 0, 2)
    values = [line.value for line in tab.lines]
    mults = [line.multiplicity for line in tab.lines]
    contribs = [line.contributors for line in tab.lines]
    s2, s10 = math.sqrt(2), math.sqrt(10)
    assert values == pytest.approx([-s10, -s2, 0.0, s2, s10], abs=1e-11)
    assert mults == [1, 3, 3, 3, 1]
    assert contribs == [(0,), (1,), (0, 2), (1,), (0,)]
    assert tab.total_dim == 11


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_full_spectrum_radius_one_general_n(n):
    tab = sp.full_spectrum(n, 0, 1)
    assert [line.multiplicity for line in tab.lines] == [1, n - 1, 1]
    assert tab.lines[0].value == pytest.approx(-math.sqrt(n), abs=1e-10)
    assert tab.lines[-1].value == pytest.approx(math.sqrt(n), abs=1e-10)


def test_dimension_identity_ball():
    for n in range(41):
        for r in range(n // 2 + 1):
            lhs = sum(
                (math.comb(n, t) - (math.comb(n, t - 1) if t else 0)) * (r - t + 1)
                for t in range(r + 1)
            )
            assert lhs == sum(math.comb(n, t) for t in range(r + 1))


def test_dimension_identity_general():
    for n in range(41):
        for r2 in range(n // 2 + 1):
            for r1 in range(r2 + 1):
                lhs = sum(
                    (math.comb(n, t) - (math.comb(n, t - 1) if t else 0))
                    * (r2 - max(t, r1) + 1)
                    for t in range(r2 + 1)
                )
                assert lhs == sum(math.comb(n, i) for i in range(r1, r2 + 1))


def test_max_eigenvalue_examples():
    assert sp.max_eigenvalue(4, 1) == pytest.approx(2.0, abs=1e-11)
    assert sp.max_eigenvalue(4, 2) == pytest.approx(math.sqrt(10), abs=1e-11)
    for n in (1, 4, 9):
        assert sp.max_eigenvalue(n, 0) == pytest.approx(0.0, abs=1e-12)


def test_verify_ball_4_0_2():
    rep = sp.verify_against_oracle(4, 0, 2, tol=1e-8)
    assert rep.passed and rep.max_deviation < 1e-10


def test_verify_trivial_single_vertex():
    rep = sp.verify_against_oracle(5, 0, 0)
    assert rep.passed and rep.max_deviation == 0.0


def test_verify_band_6_1_3():
    rep = sp.verify_against_oracle(6, 1, 3)
    assert rep.passed


@pytest.mark.parametrize("n,r1,r2", [(8, 0, 3), (9, 2, 4)])
def test_verify_reports_oracle_residual(n, r1, r2):
    rep = sp.verify_against_oracle(n, r1, r2)
    assert rep.passed
    assert 0.0 <= rep.oracle_residual <= rep.oracle_tolerance
    assert rep.oracle_tolerance == 1e-10 * rep.vertex_count
    assert "residual" not in rep.summary()


def test_index_bookkeeping_band_6_2_3():
    """Pins the row/index mapping of the truncated blocks against the oracle."""
    expected = {
        0: (12,),  # +-sqrt(12)
        1: (6,),
        2: (2,),
        3: (),  # 1x1 zero block
    }
    for t in range(4):
        block = sp.coupling_matrix(6, 2, 3, t)
        assert block.offdiag_sq == expected[t], t
        vals = sp.lambda_set(6, 2, 3, t).values
        if expected[t]:
            gam = math.sqrt(expected[t][0])
            assert vals == pytest.approx((-gam, gam), abs=1e-11)
        else:
            assert vals == (0.0,)
    assert sp.verify_against_oracle(6, 2, 3).passed


def test_two_lambda_routes_agree():
    # the affine Krawtchouk route is asserted inside lambda_set for r1 = 0;
    # exercise it across the full stated range
    for n in range(1, 21):
        for r in range(n // 2 + 1):
            for t in range(r + 1):
                sp.lambda_set(n, 0, r, t)


@functools.lru_cache(maxsize=None)
def ball_block(n, m):
    # origin 0 of the ball (n, 0, m): origin t of a ball (n, 0, r) has the same block and cross-check
    # as ball_block(n - 2t, r - t); cached, as the two tests below meet the same blocks
    return sp.lambda_set(n, 0, m, 0)


def test_the_two_routes_meet_with_no_slack_on_every_block_the_cross_check_sees():
    # the cross-check runs for r1 = 0 and 1 <= n - 2t <= 64: on 1,088 distinct blocks with 12,528
    # eigenvalue and root pairs
    blocks = [(n, m) for n in range(1, 65) for m in range(n // 2 + 1)]
    assert len(blocks) == 1088
    assert sum(len(ball_block(n, m)) for n, m in blocks) == 12528


@pytest.mark.parametrize("i", [0, 1, 2])
def test_a_root_three_radii_off_fails_the_cross_check(i, monkeypatch):
    # moving root i of K_3 over {0..6} by 1.5 times the two intervals' reach moves its image 2x - N three
    # reaches off the eigenvalue of block (6, 0, 2, 0); that is far inside the old slack of 1e-10
    kw = sp.krawtchouk
    block = sp.coupling_matrix(6, 0, 2, 0).eigenvalues()
    roots = kw.roots(kw.build(6, 3))
    reach = block.radius[i] + 2.0 * roots.radius[i]
    values = list(roots.values)
    values[i] += 1.5 * reach
    moved = kw.RootList(tuple(values), roots.radius)
    monkeypatch.setattr(kw, "_roots", lambda n, k, tol=kw.DEFAULT_TOL, count=None: moved)
    with pytest.raises(ArithmeticError, match="disagree"):
        sp.lambda_set(6, 0, 2, 0)
    assert 3.0 * reach < 1e-10


def assert_intervals_proven(solved):
    # every certified interval [v - r, v + r] of lambda_set holds its eigenvalue i, by exact counts;
    # a radius-0 value is eigenvalue i.  ``solved`` maps (n, r1, r2, t) to lambda_set's RootList.
    intervals = 0
    for (n, r1, r2, t), out in solved.items():
        couplings = list(sp.coupling_matrix(n, r1, r2, t).offdiag_sq)
        for i, (v, rad) in enumerate(zip(out.values, out.radius)):
            where = (n, r1, r2, t, i)
            if rad == 0.0:
                assert exact_count_at(couplings, 0, Fraction(v)) == (i, True), where
            else:
                assert exact_count_at(couplings, 0, Fraction(v) - Fraction(rad)) == (i, False), where
                assert exact_count_at(couplings, 0, Fraction(v) + Fraction(rad)) == (i + 1, False), where
        intervals += len(out)
    return intervals


def test_every_printed_ball_interval_is_proven_by_exact_counts():
    # the distinct blocks of the balls with n <= 60
    solved = {(n, 0, m, 0): ball_block(n, m) for n in range(61) for m in range(n // 2 + 1)}
    assert assert_intervals_proven(solved) == 10416


def test_every_printed_band_interval_is_proven_by_exact_counts():
    # one (n, r1, r2, t) per distinct block: rows max(t, r1) - t .. r2 - t of the Jacobi matrix over n - 2t
    blocks = {(n - 2 * t, max(t, r1) - t, r2 - t): (n, r1, r2, t) for n, r1, r2 in band_cases(20)
              for t in range(r2 + 1)}
    assert assert_intervals_proven({key: sp.lambda_set(*key) for key in blocks.values()}) == 1716


def test_every_table_up_to_n_24_keeps_its_bits():
    # SHA-256 of the JSON of the 818 tables with n <= 24, pinned from the tables that merged values of
    # different origins closer than 1e-9 * (n + 1): on these bands merging only proven equals is the same
    cases = list(band_cases(24))
    digest = hashlib.sha256()
    for n, r1, r2 in cases:
        digest.update(json.dumps(sp.full_spectrum(n, r1, r2).to_dict()).encode())
    assert len(cases) == 818
    assert digest.hexdigest() == "b672e00c42c5c5d2337dbb80f731a40df5aad2b0a3c7894a8f059f4146389a58"


def test_a_proven_merge_sums_the_multiplicities_of_its_origins():
    # -2 is an eigenvalue of the blocks of origins 0 and 2 of (8, 0, 3), with multiplicities 1 and 20
    lines = [line for line in sp.full_spectrum(8, 0, 3).lines if abs(line.value + 2.0) < 1e-9]
    assert [(line.multiplicity, line.contributors) for line in lines] == [(21, (0, 2))]


def block_rank(n, r1, r2, t, value):
    """(couplings, rank) of origin t's eigenvalue nearest ``value``."""
    values = sp.lambda_set(n, r1, r2, t).values
    rank = min(range(len(values)), key=lambda i: abs(values[i] - value))
    return list(sp.coupling_matrix(n, r1, r2, t).offdiag_sq), rank


def test_values_of_two_origins_near_40_keep_their_own_lines():
    # origin 2 of (46, 1, 22) has the exact eigenvalue 40, origin 0 one 1.7e-8 below it: the threshold
    # 1e-9 * 47 merged them into one line 39.99999999163537 of multiplicity 990
    near = [line for line in sp.full_spectrum(46, 1, 22).lines if abs(line.value - 40.0) < 1e-6]
    assert [(line.multiplicity, line.contributors) for line in near] == [(1, (0,)), (989, (2,))]
    assert near[0].value < 40.0 - 1e-8 and near[1].value == pytest.approx(40.0, abs=1e-12)
    couplings, rank = block_rank(46, 1, 22, 2, 40.0)
    assert td.exact_count_sqrt(couplings, 1600) == (rank, True)
    assert not td.exact_count_sqrt(block_rank(46, 1, 22, 0, 40.0)[0], 1600)[1]


def test_every_line_of_several_origins_is_proven_by_exact_counts():
    # n = 46, where the threshold first merged distinct values: each origin of such a line has the
    # eigenvalue sign * sqrt(mu), mu = round(value^2), at the rank of its value; the 0 line is exact
    blocks, merged = {}, 0
    for n, r1, r2 in band_cases(46):
        if n < 46:
            continue
        for line in sp._table(n, r1, r2, blocks).lines:
            if len(line.contributors) > 1 and line.value != 0.0:
                mu = round(line.value ** 2)
                for t in line.contributors:
                    couplings, rank = block_rank(n, r1, r2, t, line.value)
                    assert td.exact_count_sqrt(couplings, mu) == (
                        rank if line.value > 0 else len(couplings) - rank, True), (n, r1, r2, line)
                merged += 1
    assert merged == 424


def exactly_below(a, b, start):
    """Whether eigenvalue a = (couplings, rank) lies below eigenvalue b, as a dyadic point between them
    shows by exact counts; the two are within 2^-30 of ``start``."""
    lo, hi = start - Fraction(1, 2**30), start + Fraction(1, 2**30)
    for _ in range(200):
        mid = (lo + hi) / 2
        a_below, b_below = (exact_count_at(c, 0, mid)[0] > rank for c, rank in (a, b))
        if a_below != b_below:
            return a_below
        lo, hi = (lo, mid) if a_below else (mid, hi)
    raise AssertionError("no dyadic point separates the two eigenvalues")


@pytest.mark.parametrize("band,pairs,flips", [((62, 1, 30), 4, 0), ((76, 3, 37), 16, 0), ((78, 3, 38), 18, 2),
                                             ((80, 1, 39), 10, 0)])
def test_lines_whose_intervals_meet_are_in_exact_order(band, pairs, flips):
    # every pair of neighbouring lines closer than 1e-9 is in the order exact counts give; in (78, 3, 38)
    # the value of origin 2 near -+72 lies 7.3e-14 inside that of origin 0 while its float lies outside
    lines = sp.full_spectrum(*band).lines
    close = [(a, b) for a, b in zip(lines, lines[1:]) if abs(a.value - b.value) < 1e-9]
    for a, b in close:
        eigenvalues = [block_rank(*band, line.contributors[0], line.value) for line in (a, b)]
        assert exactly_below(*eigenvalues, Fraction(a.value)), (band, a, b)
    assert len(close) == pairs and sum(a.value > b.value for a, b in close) == flips


def test_values_near_70_are_ordered_by_exact_counts():
    # (76, 3, 37): neither of two values 2.4e-13 apart is sqrt(4900), though origin 2's float is -70.0;
    # (80, 1, 39): origin 0's value shares its float with origin 2's exact 70
    assert -70.0 in sp.lambda_set(76, 3, 37, 2).values
    for t in (0, 2):
        assert not td.exact_count_sqrt(block_rank(76, 3, 37, t, 70.0)[0], 4900)[1]
    shared = set(sp.lambda_set(80, 1, 39, 0).values) & set(sp.lambda_set(80, 1, 39, 2).values)
    assert 69.99999999999991 in shared
    couplings, rank = block_rank(80, 1, 39, 2, 70.0)
    assert td.exact_count_sqrt(couplings, 4900) == (rank, True)
    assert not td.exact_count_sqrt(block_rank(80, 1, 39, 0, 70.0)[0], 4900)[1]


def test_a_key_needs_sqrt_mu_in_the_interval_and_as_an_eigenvalue():
    # couplings (2,) have the eigenvalues -+sqrt(2); mu = 2 is the integer nearest 1.3^2 too
    root2 = math.sqrt(2.0)
    assert sp._sqrt_key((2,), root2, 1e-15) == (1, 2) and sp._sqrt_key((2,), -root2, 1e-15) == (-1, 2)
    assert sp._sqrt_key((2,), 1.3, 1e-12) is None  # sqrt(2) is an eigenvalue, but not in 1.3 -+ 1e-12
    up = math.nextafter(math.nextafter(root2, 2.0), 2.0)  # 1.5 to 2.5 ulps (3.3e-16 to 5.5e-16) above sqrt(2)
    assert sp._sqrt_key((2,), up, 1e-16) is None and sp._sqrt_key((2,), up, 1e-15) == (1, 2)
    assert sp._sqrt_key((3,), root2, 1e-15) is None  # in the interval, but not an eigenvalue
    assert sp._sqrt_key((), 0.0, 0.0) == (0, 0)


def placed(key=None, couplings=(), index=0, t=0):
    # a line of origin t whose float (0.5) and hull ([-3, 3]) tell nothing about its eigenvalue
    return sp._Placed(sp.SpectrumLine(0.5, 1, (t,)), -3.0, 3.0, key, couplings, index)


def test_lines_whose_hulls_meet_are_ordered_by_keys_and_exact_counts_alone():
    # -sqrt(3) < -sqrt(2) < 0 < 1 < sqrt(2) < sqrt(3) < sqrt(5): ranks of the blocks (c,), whose
    # eigenvalues are -+sqrt(c), against keys, and two such ranks against each other
    lines = [placed(couplings=(3,), index=0), placed(key=(-1, 2)), placed(key=(0, 0)),
             placed(couplings=(1,), index=1), placed(key=(1, 2)), placed(couplings=(3,), index=1),
             placed(couplings=(5,), index=1)]
    order = functools.cmp_to_key(functools.partial(sp._compare, (9, 9, 9)))
    for shift in range(len(lines)):
        assert sorted(lines[shift:] + lines[:shift], key=order) == lines
    with pytest.raises(ArithmeticError, match=r"origins \(1,\) and \(2,\) in band \(9, 9, 9\)"):
        sp._compare((9, 9, 9), placed(couplings=(2,), index=1, t=1), placed(key=(1, 2), t=2))
    with pytest.raises(ArithmeticError, match="no exact order"):  # no dyadic point by 2^-120 between
        sp._compare((9, 9, 9), placed(couplings=(2,), index=1), placed(couplings=(2,), index=1))


def test_a_large_band_merges_only_zero_and_warns_of_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = sp.full_spectrum(200, 50, 100).lines
    assert [line.value for line in lines if len(line.contributors) > 1] == [0.0]


@pytest.mark.parametrize("n,r1,r2", [(4, 1, 0), (4, 0, 3), (-1, 0, 0)])
def test_invalid_parameters(n, r1, r2):
    with pytest.raises(InvalidParameterError):
        sp.full_spectrum(n, r1, r2)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_verify_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidParameterError):
        sp.verify_against_oracle(4, 0, 2, tol=tol)


def _tamper_oracle(monkeypatch, index, value):
    batched = sp.oracle_spectra

    def tampered(graphs, **kwargs):
        first, *rest = batched(graphs, **kwargs)
        w = first.eigenvalues.copy()
        w[index] = value
        return [dataclasses.replace(first, eigenvalues=w), *rest]

    monkeypatch.setattr(sp, "oracle_spectra", tampered)


@pytest.mark.parametrize("value", [math.nan, 1.5])
def test_verify_reports_a_tampered_oracle_value_as_a_mismatch(monkeypatch, value):
    # (6, 1, 3) has 41 vertices; eigenvalue 20 is the middle one of its 11 zeros
    _tamper_oracle(monkeypatch, 20, value)
    rep = sp.verify_against_oracle(6, 1, 3)
    assert not rep.multiplicities_ok and not rep.passed
    assert rep.summary().endswith("multiplicities=MISMATCH FAIL")


SWEEP = sorted(band_cases(11))  # (n, r1, r2) order, as verify --all runs it


def test_sweep_reports_equal_the_single_band_reports():
    reports = sp.verify_bands(SWEEP)
    assert [(rep.n, rep.r1, rep.r2) for rep in reports] == SWEEP
    for rep in reports:
        assert rep == sp.verify_against_oracle(rep.n, rep.r1, rep.r2)


def test_sweep_runs_one_oracle_call_per_batch_within_the_dense_limit(monkeypatch):
    batched = sp.oracle_spectra
    batches = []

    def recorded(graphs, **kwargs):
        batches.append([g.vertex_count for g in graphs])
        return batched(graphs, **kwargs)

    monkeypatch.setattr(sp, "oracle_spectra", recorded)
    for limit, count in [(5000, 4), (1024, 22)]:
        batches.clear()
        sp.verify_bands(SWEEP, dense_limit=limit)
        assert len(batches) == count
        assert [v for batch in batches for v in batch] == [
            sum(math.comb(n, i) for i in range(r1, r2 + 1)) for n, r1, r2 in SWEEP
        ]
        assert all(sum(batch) <= limit for batch in batches)
        # consecutive bands: a batch closes only when the next band does not fit
        assert all(sum(a) + b[0] > limit for a, b in zip(batches, batches[1:]))


def test_sweep_oracle_keeps_its_bits(monkeypatch):
    # SHA-256 over float.hex of every oracle eigenvalue and residual bound of the --max-n 11 sweep, then the
    # eigenpairs of three bands; pinned from the sweep that built every band's graph on its own and found
    # each block pair by binary searches
    seen = []
    batched = sp.oracle_spectra
    monkeypatch.setattr(sp, "oracle_spectra", lambda graphs, **kw: seen.extend(batched(graphs, **kw)) or seen[-len(graphs):])
    sp.verify_bands(SWEEP)
    assert len(seen) == len(SWEEP)
    digest = hashlib.sha256()
    for oracle in seen:
        digest.update(" ".join(map(float.hex, oracle.eigenvalues.tolist())).encode())
        digest.update(float.hex(oracle.residual_bound).encode())
    for band in [(6, 0, 3), (7, 1, 3), (8, 2, 4)]:
        oracle = hm.oracle_spectrum(hm.build_graph(*band), want_vectors=True)
        digest.update(" ".join(map(float.hex, oracle.eigenvalues.tolist())).encode())
        digest.update(" ".join(map(float.hex, oracle.eigenvectors.ravel().tolist())).encode())
        digest.update(float.hex(oracle.residual_bound).encode())
    assert digest.hexdigest() == "b22c343e520a6d14f28d8e391964a514b9a767ef2a1d6d4ab4de54e159c09937"


@pytest.mark.parametrize("limit,builds", [(5000, 14), (1024, 32)])
def test_sweep_builds_one_graph_per_run_of_bands(monkeypatch, limit, builds):
    # measured: 14 and 32 graphs for the 111 bands, one per run of consecutive bands of one n within a
    # batch whose hull fits the dense limit
    built, batches = [], []
    build_graph, batched = sp.build_graph, sp.oracle_spectra
    monkeypatch.setattr(sp, "build_graph", lambda *a, **kw: built.append(build_graph(*a, **kw)) or built[-1])
    monkeypatch.setattr(sp, "oracle_spectra", lambda graphs, **kw: batches.append(graphs) or batched(graphs, **kw))
    sp.verify_bands(SWEEP, dense_limit=limit)
    assert len(built) == builds
    assert all(hull.vertex_count <= limit for hull in built)
    graphs = [g for batch in batches for g in batch]
    assert [(g.n, g.r1, g.r2) for g in graphs] == SWEEP
    # each band's graph is its run's hull, or new arrays cut from it; runs do not cross batches
    hulls, hull = iter(built), None
    for batch in batches:
        for i, g in enumerate(batch):
            if not (i and g.n == hull.n and hull.r1 <= g.r1 and g.r2 <= hull.r2):
                hull = next(hulls)
            assert g.n == hull.n and hull.r1 <= g.r1 and g.r2 <= hull.r2
            assert g is hull or not any(np.shares_memory(g.indices, h.indices) for h in built)
    assert next(hulls, None) is None


def test_sweep_solves_each_distinct_block_once(monkeypatch):
    solved, crosschecked = [], []
    lambda_set, roots = sp.lambda_set, sp.krawtchouk._roots
    monkeypatch.setattr(sp, "lambda_set", lambda n, r1, r2, t: solved.append(
        (n - 2 * t, max(t, r1) - t, r2 - t, r1 == 0)) or lambda_set(n, r1, r2, t))
    monkeypatch.setattr(sp.krawtchouk, "_roots", lambda *a: crosschecked.append(a) or roots(*a))
    sp.verify_bands(SWEEP)
    keys = {(n - 2 * t, max(t, r1) - t, r2 - t, r1 == 0) for n, r1, r2 in SWEEP for t in range(r2 + 1)}
    assert sorted(solved) == sorted(keys)
    assert len(keys) == 142 < sum(r2 + 1 for _, _, r2 in SWEEP) == 391
    # every r1 = 0 block keeps its Krawtchouk cross-check
    assert len(crosschecked) == sum(1 for key in keys if key[3] and key[0] >= 1)


def test_shared_blocks_give_the_tables_of_one_band_at_a_time():
    blocks = {}
    for n, r1, r2 in SWEEP:
        assert sp._table(n, r1, r2, blocks) == sp.full_spectrum(n, r1, r2)


def test_sweep_memory_peak_is_no_higher_than_one_large_band():
    def peak(run):
        run()  # warm every cache first
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: sp.verify_bands(SWEEP)) <= peak(lambda: sp.verify_against_oracle(12, 0, 6))


def test_spectrum_table_serialization():
    tab = sp.full_spectrum(5, 1, 2)
    d = tab.to_dict()
    assert set(d) == {"n", "r1", "r2", "total_dim", "lines"}
    assert all(set(line) == {"value", "multiplicity", "t"} for line in d["lines"])
    assert sum(line["multiplicity"] for line in d["lines"]) == d["total_dim"]
    csv = tab.csv_lines()
    assert csv[0] == "value,multiplicity,t"
    assert len(csv) == len(tab.lines) + 1


def test_expanded_matches_oracle_multiset():
    for n, r1, r2 in band_cases(7):
        tab = sp.full_spectrum(n, r1, r2)
        orc = cached_oracle(n, r1, r2)
        assert np.abs(tab.expanded() - orc.eigenvalues).max() < 1e-8


def coupling_comprehension(n, r1, r2, t):
    # the couplings as a comprehension over the formula: the reference for the shared integer one
    tstar = max(t, r1)
    return tuple((k - 1) * (n - 2 * t - k + 2) for k in range(tstar - t + 2, r2 - t + 2))


def assert_couplings(n, r1, r2, t):
    got = sp.coupling_matrix(n, r1, r2, t).offdiag_sq
    assert got == coupling_comprehension(n, r1, r2, t), (n, r1, r2, t)
    assert all(type(v) is int for v in got), (n, r1, r2, t)


def test_coupling_matrix_matches_the_comprehension_on_every_small_block():
    for n in range(40):
        for r2 in range(n // 2 + 1):
            for r1 in range(r2 + 1):
                for t in range(r2 + 1):
                    assert_couplings(n, r1, r2, t)


@pytest.mark.parametrize("n,r1,r2,t", [
    (2**32 - 1, 0, 6, 0),  # n - 2t = 2**32 - 1: the last int64 case
    (2**32 + 1, 3, 9, 1),
    (2**32 - 1, 2**31 - 5, 2**31 - 1, 0),  # couplings near 2**62, the int64 top
    (2**32, 0, 6, 0),  # n - 2t = 2**32: exact Python ints
    (2**32 + 4, 3, 9, 2),
    (2**32, 2**31 - 4, 2**31, 0),
    (10**21, 0, 5, 0),
    (10**21, 2, 8, 4),
    (10**21, 10**21 // 2 - 3, 10**21 // 2, 0),
])
def test_coupling_matrix_matches_the_comprehension_past_int64(n, r1, r2, t):
    assert_couplings(n, r1, r2, t)
