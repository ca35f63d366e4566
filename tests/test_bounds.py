import math

import pytest

import paper_checks as pc
from ballspec import bounds as bd
from ballspec.errors import InvalidParameterError
from ballspec.krawtchouk import first_root
from helpers import cached_oracle

# pinned at build time: largest observed envelope constant was ~0.818
ENVELOPE_C = 0.85


def test_entropy_basic_values():
    assert bd.entropy(0.5) == 1.0
    assert bd.entropy(0.0) == 0.0 and bd.entropy(1.0) == 0.0
    assert bd.entropy(0.11) == pytest.approx(0.49992, abs=1e-4)


def test_entropy_inverse_roundtrip():
    assert bd.entropy_inv(1.0) == 0.5
    assert bd.entropy_inv(0.0) == 0.0
    assert bd.entropy_inv(0.5) == pytest.approx(0.11003, abs=1e-5)
    for h in (0.05, 0.3, 0.5, 0.77, 0.99):
        assert bd.entropy(bd.entropy_inv(h)) == pytest.approx(h, abs=1e-12)


def test_entropy_domain():
    with pytest.raises(InvalidParameterError):
        bd.entropy(1.5)
    with pytest.raises(InvalidParameterError):
        bd.entropy_inv(-0.1)


def test_modls_bound():
    assert bd.modls_bound(10, 10.0) == pytest.approx(0.0, abs=1e-9)
    # recomputed before pinning: H^-1(0.5) ~ 0.110028 gives ~37.415
    assert bd.modls_bound(100, 50.0) == pytest.approx(37.41510, abs=1e-4)
    assert bd.modls_bound(50, 0.0) == pytest.approx(50.0)


def test_modls_below_dimension():
    for n in (10, 25, 60):
        for num in range(n + 1):
            assert bd.modls_bound(n, float(num)) <= n + 1e-12


def test_ball_bound_small_case():
    rep = bd.ball_bound(4, math.log2(5))
    assert rep.t == 0
    assert rep.r == pytest.approx(0.554, abs=1e-2)
    assert rep.lambda_lower == 0.0  # 4 - 2 * first_root(4, 1)
    assert rep.delta_upper == 4.0


def test_ball_bound_identity_and_fields():
    for n, log2_s in [(10, 5.0), (30, 20.0), (100, 50.0), (101, 77.5)]:
        rep = bd.ball_bound(n, log2_s)
        assert rep.lambda_lower + rep.delta_upper == n
        assert rep.t == math.floor(rep.r)
        assert 0 < rep.delta_upper <= n
        assert rep.subcube_delta == n - log2_s
        assert rep.log_lower == pytest.approx((n - log2_s) * math.log(2))
        assert rep.modls_lower <= n


def test_ball_bound_domain():
    with pytest.raises(InvalidParameterError):
        bd.ball_bound(10, 0.5)
    with pytest.raises(InvalidParameterError):
        bd.ball_bound(10, 9.5)


def test_ball_bound_sqrt_n_window():
    # 2^n/s = 2^sqrt(n) at n = 1000; observed ratio ~1.455, window from the
    # asymptotic second claim
    n = 1000
    rep = bd.ball_bound(n, n - math.sqrt(n))
    ratio = rep.delta_upper / (math.log(2) * math.sqrt(n))
    assert 1.0 < ratio < 1.5
    assert ratio == pytest.approx(1.4549, abs=1e-3)


def test_lambda_lower_matches_oracle_for_realizable_cardinalities():
    for n in range(2, 13):
        for t0 in range(n // 2 + 1):
            size = sum(math.comb(n, i) for i in range(t0 + 1))
            log2_s = math.log2(size)
            if not 1.0 <= log2_s <= n - 1:
                continue
            rep = bd.ball_bound(n, log2_s)
            lam_oracle = cached_oracle(n, 0, rep.t).eigenvalues[-1]
            assert abs(rep.lambda_lower - lam_oracle) < 1e-8, (n, t0, rep.t)


def test_strict_root_gap_inequality():
    for k in range(1, 10):
        x = k / 10
        u = bd.entropy_inv(x)
        assert 2 * math.sqrt(u * (1 - u)) > x


def test_first_root_upper_envelope():
    for n in (100, 400, 1600):
        t = n // 4
        x = first_root(n, t + 1)
        bound = n / 2 - math.sqrt((t + 1) * (n - t + 1)) + ENVELOPE_C * t ** (-1 / 6) * math.sqrt(n)
        assert x <= bound, (n, x, bound)


def test_reciprocity_delta_bound_small():
    assert pc.reciprocity_delta_bound(4, 1) == 1
    # t+1 = ceil(n/2) forces degree 1 since its first root is n/2
    assert pc.reciprocity_delta_bound(9, 4) == 1


def test_reciprocity_delta_bound_n100():
    i = pc.reciprocity_delta_bound(100, 40)
    assert i == 4  # pinned by direct computation of the first roots
    assert first_root(100, 4) <= 41.0
    assert first_root(100, 3) > 41.0
    env = ENVELOPE_C * 40 ** (-1 / 6) * 10.0
    assert 2 * i >= 100 - 2 * math.sqrt(41 * 61) - env


def test_subcube_reference():
    n = 12
    assert pc.subcube_reference(n, n - 1) == (1.0, float(n - 1))
    assert pc.subcube_reference(n, n) == (0.0, float(n))
    assert pc.subcube_reference(n, 0) == (float(n), 0.0)


def test_log2_big():
    assert bd.log2_big(8) == 3.0
    assert bd.log2_big(2**200) == 200.0
    assert bd.log2_big(2**200 + 2**190) == pytest.approx(math.log2(1 + 2**-10) + 200, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        bd.log2_big(0)


def test_report_serialization():
    rep = bd.ball_bound(20, 11.5)
    d = rep.to_dict()
    assert list(d) == bd.BoundsReport.CSV_HEADER.split(",")
    row = rep.csv_row()
    assert len(row.split(",")) == 9


# the bounds_large_n workload's 19 bounds cases: log2 s at six fractions of three dimensions, and 3^400 at n = 1000
WORKLOAD_CASES = [(n, frac * n) for n in (1000, 10**4, 10**5) for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
WORKLOAD_CASES.append((1000, bd.log2_big(3**400)))


@pytest.mark.parametrize("n,log2_s", WORKLOAD_CASES)
def test_ball_bound_inverts_the_entropy_once_with_the_bits_of_modls_bound(monkeypatch, n, log2_s):
    expected = bd.modls_bound(n, log2_s)
    inverted, entropy_inv = [], bd.entropy_inv
    monkeypatch.setattr(bd, "entropy_inv", lambda h: inverted.append(h) or entropy_inv(h))
    assert bd.ball_bound(n, log2_s).modls_lower == expected
    assert inverted == [log2_s / n]
