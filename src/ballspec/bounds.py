"""Entropy parametrization and spectral/boundary bounds for large sets.

For a target cardinality s (given as log2), the radius parametrization is
r = n * Hinv(log2(s)/n) with H the binary entropy.  The ball of radius
t = floor(r) fits inside the cardinality budget, so its largest adjacency
eigenvalue n - 2 * x(t+1), with x(t+1) the first root of the degree-(t+1)
Krawtchouk polynomial, lower-bounds the extremal maximal eigenvalue and
2 * x(t+1) upper-bounds the extremal fractional edge boundary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InvalidParameterError
from .krawtchouk import first_root

LN2 = math.log(2.0)
ENTROPY_INV_TOL = 1e-14


def entropy(x: float) -> float:
    """Binary entropy H(x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def entropy_inv(h: float) -> float:
    """Inverse of the entropy on [0, 1/2], by bisection (H is increasing there)."""
    if not 0.0 <= h <= 1.0:
        raise InvalidParameterError(f"entropy value must be in [0, 1], got {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > ENTROPY_INV_TOL:
        mid = 0.5 * (lo + hi)
        if entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log2_big(s: int) -> float:
    """log2 of a positive integer of any size, accurate to double precision."""
    if s <= 0:
        raise InvalidParameterError(f"cardinality must be positive, got {s}")
    bl = s.bit_length()
    if bl <= 64:
        return math.log2(s)
    top = s >> (bl - 64)
    return (bl - 64) + math.log2(top)


def modls_bound(n: int, log2_s: float) -> float:
    """Entropy-based lower bound n * (1 - 2*sqrt(u(1-u))) on the fractional boundary."""
    if n <= 0:
        raise InvalidParameterError(f"dimension must be positive, got {n}")
    if not 0.0 <= log2_s <= n:
        raise InvalidParameterError(f"need 0 <= log2_s <= n, got {log2_s}")
    return _modls(n, entropy_inv(log2_s / n))


def _modls(n: int, u: float) -> float:
    """``modls_bound`` at u = entropy_inv(log2_s / n), inverted by the caller."""
    return n * (1.0 - 2.0 * math.sqrt(u * (1.0 - u)))


@dataclass(frozen=True)
class BoundsReport:
    """All bound quantities for one (n, log2_s) pair.

    lambda_lower + delta_upper == n by construction: both derive from the
    same first root.
    """

    n: int
    log2_s: float
    r: float
    t: int
    lambda_lower: float
    delta_upper: float
    modls_lower: float
    subcube_delta: float
    log_lower: float

    CSV_HEADER = "n,log2_s,r,t,lambda_lower,delta_upper,modls_lower,subcube_delta,log_lower"

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> str:
        d = self.to_dict()
        return ",".join(repr(d[key]) if isinstance(d[key], float) else str(d[key])
                        for key in self.CSV_HEADER.split(","))


def ball_bound(n: int, log2_s: float) -> BoundsReport:
    """Full bounds report for cardinality 2**log2_s inside the n-cube."""
    if n < 2:
        raise InvalidParameterError(f"dimension must be at least 2, got {n}")
    if not 1.0 <= log2_s <= n - 1:
        raise InvalidParameterError(f"need 1 <= log2_s <= n-1, got {log2_s}")
    u = entropy_inv(log2_s / n)
    r = n * u
    t = math.floor(r)
    x = first_root(n, t + 1)
    delta_upper = 2.0 * x
    lambda_lower = n - delta_upper
    return BoundsReport(
        n=n,
        log2_s=log2_s,
        r=r,
        t=t,
        lambda_lower=lambda_lower,
        delta_upper=delta_upper,
        modls_lower=_modls(n, u),  # the same bits as modls_bound, whose u this is
        subcube_delta=n - log2_s,
        log_lower=(n - log2_s) * LN2,
    )
