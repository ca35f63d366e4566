import collections
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
    roots = kw.roots(6, 3)
    reach = block.radius[i] + 2.0 * roots.radius[i]
    values = list(roots.values)
    values[i] += 1.5 * reach
    moved = kw.RootList(tuple(values), roots.radius)
    monkeypatch.setattr(kw, "roots", lambda n, k, tol=kw.DEFAULT_TOL, count=None: moved)
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
    assert not rep.passed
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

    def recorded(bands, **kwargs):
        spectra = batched(bands, **kwargs)
        batches.append([len(oracle.eigenvalues) for oracle in spectra])
        return spectra

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
    # SHA-256 over float.hex of every oracle eigenvalue and residual bound of the --max-n 11 sweep, then of
    # three bands on their own; pinned at the oracle that splits blocks of SPLIT_CELLS cells or more by a
    # pair exchange
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
        oracle = hm.oracle_spectrum(hm.build_graph(*band))
        digest.update(" ".join(map(float.hex, oracle.eigenvalues.tolist())).encode())
        digest.update(float.hex(oracle.residual_bound).encode())
    assert digest.hexdigest() == "9ddb06b4d4df172904b757b120621154021a62b7db5099bf9dc0d5e366016306"


def test_the_batched_sweep_reports_each_band_as_its_own_verify_does():
    # verify_bands pairs a whole batch's values in one pass; each band alone takes the one-band path
    for got in sp.verify_bands(SWEEP):
        alone = sp.verify_against_oracle(got.n, got.r1, got.r2)
        assert got.max_deviation.hex() == alone.max_deviation.hex(), got
        assert got.oracle_residual.hex() == alone.oracle_residual.hex(), got
        assert (got.passed, got.vertex_count) == (alone.passed, alone.vertex_count), got


@pytest.mark.parametrize("limit,builds", [(5000, 14), (1024, 32)])
def test_sweep_builds_one_graph_per_run_of_bands(monkeypatch, limit, builds):
    # measured: 14 and 32 graphs for the 111 bands, one per run of consecutive bands of one n within a
    # batch whose hull fits the dense limit
    built, batches = [], []
    build_graphs, batched = sp.build_graphs, sp.oracle_spectra
    monkeypatch.setattr(sp, "build_graphs", lambda bands: built.extend(build_graphs(bands)) or built[-len(bands):])
    monkeypatch.setattr(sp, "oracle_spectra", lambda bands, **kw: batches.append(bands) or batched(bands, **kw))
    sp.verify_bands(SWEEP, dense_limit=limit)
    assert len(built) == builds
    assert all(hull.vertex_count <= limit for hull in built)
    bands = [band for batch in batches for band in batch]
    assert [(g.n, r1, r2) for g, r1, r2 in bands] == SWEEP
    # each band is a weight range of its run's hull, a graph built for it; runs do not cross batches
    hulls, hull = iter(built), None
    for batch in batches:
        for i, (g, r1, r2) in enumerate(batch):
            if not (i and g is hull):
                hull = next(hulls)
            assert g is hull and hull.r1 <= r1 <= r2 <= hull.r2
    assert next(hulls, None) is None


def test_sweep_measures_each_band_once_and_each_hull_graph_once_more(monkeypatch):
    # verify_bands measures each distinct band once, and a hull only when it is none of the bands; then
    # oracle_spectra checks each hull graph it is handed, and build_graphs caps its vertices.  Every hull of
    # the sweep is one of its bands: 111 + 11 cell counts and 111 + 2 * 11 vertex counts.  The cell counts
    # of one n share one trinomial table, the 11 hulls one sphere recursion, and the oracle takes 113 SVDs,
    # blocks of SPLIT_CELLS cells or more taking one for each half;
    # a second sweep in the same process repeats every count, so no table outlives its call
    calls, built = collections.Counter(), []
    for module, name in [(hm, "oracle_cells"), (hm, "band_vertices"), (hm, "_trinomials"), (hm, "_sphere_tables"),
                         (np.linalg, "svd")]:
        measure = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, measure=measure, **kw:
                            calls.update([name]) or measure(*a, **kw))
    build_graphs = sp.build_graphs
    monkeypatch.setattr(sp, "build_graphs", lambda bands: built.extend(build_graphs(bands)) or built[-len(bands):])
    for _ in range(2):
        calls.clear()
        built.clear()
        sp.verify_bands(SWEEP)
        assert (len(SWEEP), len(built)) == (111, 11)
        assert calls["oracle_cells"] <= len(SWEEP) + len(built) == 122
        assert calls["band_vertices"] <= len(SWEEP) + 2 * len(built) == 133
        assert (calls["_trinomials"], calls["_sphere_tables"], calls["svd"]) == (11, 1, 113)
    # a repeated band, and a hull over the vertex budget met twice, are each measured once: 2 bands and
    # 1 hull, then 3 graphs
    calls.clear()
    monkeypatch.setattr(hm, "ORACLE_VERTEX_BUDGET", 2000)
    assert all(r.passed for r in sp.verify_bands([(12, 0, 5), (12, 6, 6), (12, 0, 5)]))
    assert {name: calls[name] for name in ("oracle_cells", "band_vertices")} == {
        "oracle_cells": 2 + 1 + 3, "band_vertices": 2 + 1 + 3 + 3}


def _bits(oracle):
    return [float.hex(v) for v in oracle.eigenvalues.tolist()], float.hex(oracle.residual_bound), oracle.tolerance


def test_each_band_of_a_hull_keeps_the_bits_of_its_own_graph(monkeypatch):
    # the blocks cut from a hull's have the bytes of the band's own graph's blocks, so the same SVD bits
    seen = []
    batched = sp.oracle_spectra
    monkeypatch.setattr(sp, "oracle_spectra", lambda bands, **kw: seen.extend(zip(bands, batched(bands, **kw))) or [o for _, o in seen[-len(bands):]])
    own = {}  # the oracle of each band's own graph
    # of the sweep's 111 bands, 97 at a limit of 5,000 vertices and 100 under the cell budget, and two
    # of the n = 12 ones, are cut from a larger graph
    for dense_limit, cut_bands in [(5000, 99), (None, 102)]:
        seen.clear()
        sp.verify_bands(SWEEP, dense_limit=dense_limit)
        hull = hm.build_graph(12, 0, 6)
        cut = [(hull, 0, 6), (hull, 2, 5), (hull, 4, 6)]
        seen += zip(cut, hm.oracle_spectra(cut))
        assert [(g.n, r1, r2) for (g, r1, r2), _ in seen] == SWEEP + [(12, 0, 6), (12, 2, 5), (12, 4, 6)]
        assert sum(g.r1 < r1 or r2 < g.r2 for (g, r1, r2), _ in seen) == cut_bands
        for (g, r1, r2), oracle in seen:
            if (g.n, r1, r2) not in own:
                own[g.n, r1, r2] = _bits(hm.oracle_spectrum(hm.build_graph(g.n, r1, r2)))
            assert _bits(oracle) == own[g.n, r1, r2], (g.n, r1, r2)


def test_sweep_hulls_fit_the_vertex_budget(monkeypatch):
    # (12, 0, 5) and (12, 6, 6) fit 2,000 vertices, their hull (12, 0, 6) of 2,510 does not: two graphs
    built = []
    monkeypatch.setattr(sp, "build_graphs", lambda bands: built.extend(bands) or hm.build_graphs(bands))
    cases = [(12, 0, 5), (12, 6, 6)]
    assert all(r.passed for r in sp.verify_bands(cases))
    monkeypatch.setattr(hm, "ORACLE_VERTEX_BUDGET", 2000)
    assert all(r.passed for r in sp.verify_bands(cases))
    assert built == [(12, 0, 6), *cases]


def test_sweep_solves_each_distinct_block_once(monkeypatch):
    solved, built, crosschecked = [], [], []
    lambda_set, coupling_matrix, roots = sp.lambda_set, sp.coupling_matrix, sp.krawtchouk.roots
    monkeypatch.setattr(sp, "lambda_set", lambda n, r1, r2, t, block: solved.append(
        (n - 2 * t, max(t, r1) - t, r2 - t)) or lambda_set(n, r1, r2, t, block))
    monkeypatch.setattr(sp, "coupling_matrix", lambda *a: built.append(a) or coupling_matrix(*a))
    monkeypatch.setattr(sp.krawtchouk, "roots", lambda *a: crosschecked.append(a) or roots(*a))
    sp.verify_bands(SWEEP)
    # origin t's block is rows max(t, r1) - t .. r2 - t of the Jacobi matrix over n - 2t
    keys = {(n - 2 * t, max(t, r1) - t, r2 - t) for n, r1, r2 in SWEEP for t in range(r2 + 1)}
    assert sorted(solved) == sorted(keys)
    assert len(built) == len(keys)  # each block is built once, and lambda_set is handed it
    assert len(keys) == 112 < sum(r2 + 1 for _, _, r2 in SWEEP) == 391
    # every block with first row 0 is a ball's block, and keeps its Krawtchouk cross-check
    assert sorted(crosschecked) == sorted((key[0], key[2] + 1) for key in keys if key[1] == 0 and 1 <= key[0] <= 64)


def test_a_band_block_of_a_ball_is_cross_checked_against_its_krawtchouk_roots(monkeypatch):
    # origin t = 3 of (10, 2, 5) has t >= r1 > 0: its block is rows 0..2 of the Jacobi matrix over 4, and
    # its eigenvalues are 2 * roots - 4 of the degree-3 Krawtchouk polynomial over {0..4}
    roots = sp.krawtchouk.roots

    def shifted(n, k, *rest):
        out = roots(n, k, *rest)
        if (n, k) == (4, 3):
            out = dataclasses.replace(out, values=(out.values[0] + 1e-6, *out.values[1:]))
        return out

    monkeypatch.setattr(sp.krawtchouk, "roots", shifted)
    with pytest.raises(ArithmeticError, match="t=3"):
        sp.full_spectrum(10, 2, 5)


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


# bands of growing cells; (40, 0, 3), (60, 0, 3) and (64, 0, 3) are thin: at (64, 0, 3) the block of the
# empty character, 529 x 5,984, holds 86 % of the cells
PEAK_BANDS = [(12, 0, 6), (40, 0, 3), (60, 0, 3), (64, 0, 3), (16, 0, 7), (18, 0, 6), (16, 0, 8), (20, 0, 6)]


def test_oracle_peak_is_within_four_times_the_cell_bytes_on_the_largest_band_the_budget_admits():
    # measured: 2.3 times at (16, 0, 7) and 3.5 times at (64, 0, 3)
    band = max((b for b in PEAK_BANDS if hm.oracle_cells(*b) <= hm.ORACLE_CELL_BUDGET), key=lambda b: hm.oracle_cells(*b))
    g = hm.build_graph(*band)
    tracemalloc.start()
    try:
        hm.oracle_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * hm.oracle_cells(*band), band


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


# the characteristic polynomials of the graph and of the table, evaluated mod a prime: no float anywhere.  Two
# distinct polynomials of degree V agree at a random x with probability at most V/p (Schwartz-Zippel)
PRIMES = (2_147_483_629, 2_147_483_587)


def _det_mod(a, p):
    """det(a) mod p by Gaussian elimination in int64: p < 2^31, so a product of two residues fits."""
    a, det = a % p, 1
    for i in range(len(a)):
        nonzero = np.flatnonzero(a[i:, i])
        if not nonzero.size:
            return 0
        k = i + int(nonzero[0])
        if k != i:
            a[[i, k]] = a[[k, i]]
            det = -det
        det = det * int(a[i, i]) % p
        factor = a[i + 1 :, i] * pow(int(a[i, i]), p - 2, p) % p
        a[i + 1 :, i:] = (a[i + 1 :, i:] - factor[:, None] * a[i, i:] % p) % p
    return det % p


def _graph_charpoly(g, x, p):
    """det(xI - A) mod p = x^(e - o) det(x^2 I - B^T B), B the e x o biadjacency between the larger parity side and
    the smaller."""
    odd = np.array([m.bit_count() % 2 for m in g.masks.tolist()], dtype=bool)
    a = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    a[np.repeat(np.arange(g.vertex_count), np.diff(g.indptr)), g.indices] = 1
    b = a[~odd][:, odd]
    if len(b) < len(b.T):
        b = b.T
    e, o = b.shape
    return pow(x, e - o, p) * _det_mod(x * x % p * np.eye(o, dtype=np.int64) - b.T @ b, p) % p


def _table_charpoly(n, r1, r2, x, p, multiplicity=sp.origin_multiplicity, couplings=None):
    """prod_t det(xI - T_t)^(C(n, t) - C(n, t - 1)) mod p, each det by D_j = x D_(j-1) - c_j D_(j-2)."""
    total = 1
    for t in range(r2 + 1):
        d0, d1 = 1, x
        for c in (couplings or {}).get(t, sp.coupling_matrix(n, r1, r2, t).offdiag_sq):
            d0, d1 = d1, (x * d1 - c * d0) % p
        total = total * pow(d1, multiplicity(n, t), p) % p
    return total


def _charpoly_cases():
    rng = np.random.default_rng(14)
    for n, r1, r2 in band_cases(9):
        yield (n, r1, r2), [(p, int(rng.integers(2, p))) for p in PRIMES]


def test_the_table_and_the_graph_have_one_characteristic_polynomial_mod_two_primes():
    checked = 0
    for band, points in _charpoly_cases():
        g = hm.build_graph(*band)
        for p, x in points:
            assert _table_charpoly(*band, x, p) == _graph_charpoly(g, x, p), (band, p)
        checked += 1
    assert checked == 69  # every band with n <= 9


def test_the_polynomial_check_sees_a_moved_multiplicity_or_a_coupling_off_by_one():
    seen = 0
    for (n, r1, r2), points in _charpoly_cases():
        if r1 == r2:
            continue  # one sphere: every origin's block is the 1 x 1 zero, with no coupling
        seen += 1
        moved = lambda n, t: sp.origin_multiplicity(n, t) + {0: 1, 1: -1}.get(t, 0)  # one space from t = 1 to t = 0
        block = sp.coupling_matrix(n, r1, r2, 0).offdiag_sq
        g = hm.build_graph(n, r1, r2)
        for p, x in points:
            graph = _graph_charpoly(g, x, p)
            assert _table_charpoly(n, r1, r2, x, p, multiplicity=moved) != graph, (n, r1, r2, p)
            if block:
                off = {0: (block[0] + 1, *block[1:])}
                assert _table_charpoly(n, r1, r2, x, p, couplings=off) != graph, (n, r1, r2, p)
    assert seen == 40


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


@pytest.mark.parametrize("cases,factored,blocks", [
    ((SWEEP, 5000), 154, 940),
    (([(12, 0, 6)], None), 8, 70),
    (([(12, 4, 6)], None), 8, 70),
    ((SWEEP, None), 125, 940),
])
def test_the_oracle_factors_each_distinct_block_once(monkeypatch, cases, factored, blocks):
    # the oracle_verify workload's three commands, each case a list of bands and a dense limit: 1,050
    # blocks B_S, of which the 30 of SPLIT_CELLS cells or more (16 of the sweep's, 7 in each n = 12 band) are
    # split into two halves, so 1,080 matrices reach the SVD stage; 170 of them differ from an earlier one of
    # the same shape in the same oracle_spectra call when the sweep takes 4 calls at a limit of 5,000
    # vertices, and 141 when it takes one under the cell budget; at (12, 0, 6) each shape has one.  A stack
    # of one matrix goes to the SVD without a _distinct call, so its SVD is the first call since the last SVD
    cases, dense_limit = cases
    svd, distinct = np.linalg.svd, hm._distinct
    calls = []  # ("svd" or "distinct", blocks handed in), in call order

    def counted(b, **kwargs):
        calls.append(("svd", len(b)))
        return svd(b, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(hm, "_distinct", lambda b: calls.append(("distinct", len(b))) or distinct(b))
    assert all(report.passed for report in sp.verify_bands(cases, dense_limit=dense_limit))
    lone = [size for (name, size), (before, _) in zip(calls, [("svd", 0), *calls]) if name == before == "svd"]
    seen = [size for name, size in calls if name == "distinct"]
    assert sum(size for name, size in calls if name == "svd") == factored
    assert sum(seen) + len(lone) == blocks and set(lone) <= {1} and 1 not in seen
