"""Certified interval arithmetic for the singularity xi_k and derived limits.

xi_k is the unique root of Phi_k(z) = 1 in (0, 1]; it is the radius of
convergence of Psi_k, decreases strictly in k, and tends to 1/4.  Exact
rational iteration of Phi_k is hopeless for large k (coefficient sizes
square at every level), so enclosures are computed with fixed-precision
dyadic endpoints and outward rounding; certificates are exact integer sign
tests.  Bisection escalates the working precision when a comparison is
undecided; escalation failure raises PrecisionExhausted naming the width
that was achieved.  A float estimate of xi_k only picks which bisection
midpoints need a certificate; no endpoint depends on it.

Phi_k(z) is the k-th iterate of v -> z + v^2 from v = z, monotone in z
and in v.  Its floor track rounds every square down and its ceil track
every square up, so they bound Phi_k from below and above.  Neither reads
the other, so a certificate runs only the track it needs: Phi_k < 1 (the
bracket's left end, the cut lo) reads the ceil track, Phi_k > 1 (the
bracket's right end, the cut hi) the floor track, and a bisection
midpoint or phi_at reads both.  Each track rises with every step, so it
can stop once it passes the value it is compared with.

limit_fractions assembles the derived limits from an xi_k enclosure with
exact Fraction interval arithmetic:

    xi_k
    isolated fraction  p(k)    = xi_k (1 - Phi_{k-1}(xi_k))^2
    density of B' (non-isolated vertices)
                               = (4 - 4 xi_k) / (1 - p(k))

The CLI derives the other limits from xi_k alone: the standard density
4 - 2 xi_k (limit 7/2), the symmetric density 4 - 4 xi_k (limit 3) and the
doubling ratio bound 3 xi_k (limit 3/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, ldexp, pi

from .errors import PrecisionExhausted

DEFAULT_TOL = Fraction(1, 10**12)
# xi's working precision never exceeds this many bits.
MAX_BITS = 4096
# phi_at refuses once its ceil track exceeds this value.
PHI_BOUND = 64


@dataclass(frozen=True)
class CertifiedInterval:
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "CertifiedInterval":
        x = Fraction(x)
        return CertifiedInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def __add__(self, other) -> "CertifiedInterval":
        o = _coerce(other)
        return CertifiedInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "CertifiedInterval":
        return CertifiedInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "CertifiedInterval":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CertifiedInterval":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CertifiedInterval":
        o = _coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return CertifiedInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CertifiedInterval":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval denominator contains zero")
        inv = CertifiedInterval(1 / o.hi, 1 / o.lo)
        return self * inv

    def squared(self) -> "CertifiedInterval":
        sq = self * self
        lo = Fraction(0) if 0 in self else sq.lo
        return CertifiedInterval(lo, sq.hi)


def _coerce(x) -> CertifiedInterval:
    if isinstance(x, CertifiedInterval):
        return x
    return CertifiedInterval.point(x)


# ---------------------------------------------------------------------------
# dyadic evaluation of Phi_k


def _phi_floor(k: int, z: int, p: int, cap: int) -> int:
    """Floor track of Phi_k at z/2^p, scaled by 2^p: a lower bound on
    2^p Phi_k(z/2^p).  It stops once it passes cap, and then only says
    that Phi_k(z/2^p) is above cap/2^p."""
    v = z
    for _ in range(k):
        if v > cap:
            break
        v = z + ((v * v) >> p)
    return v


def _phi_ceil(k: int, z: int, p: int, cap: int) -> int:
    """Ceil track of Phi_k at z/2^p, scaled by 2^p: an upper bound on
    2^p Phi_k(z/2^p) when it ends at most cap.  It stops once it passes
    cap, and then means only "above cap", not a bound."""
    v = z
    for _ in range(k):
        if v > cap:
            break
        v = z - ((-(v * v)) >> p)
    return v


def _phi_cmp_one(k: int, z: int, p: int) -> int:
    """Sign of Phi_k(z/2^p) - 1, certified: -1, +1, or 0 when undecided.

    -1 is read from the ceil track alone and +1 from the floor track
    alone, the floor track only when the ceil track is not below 1.
    """
    one = 1 << p
    if _phi_ceil(k, z, p, one) < one:
        return -1
    if _phi_floor(k, z, p, one) > one:
        return 1
    return 0


def _to_scaled(x: Fraction, p: int) -> tuple[int, int]:
    """Outward dyadic bounds (floor, ceil) of x at precision p."""
    num = x.numerator << p
    den = x.denominator
    lo = num // den
    hi = -((-num) // den)
    return lo, hi


def phi_at(k: int, z_point) -> CertifiedInterval:
    """Certified enclosure of Phi_k over a point or interval in [0, ~1], at
    precision max(128, 8 + bit length of the lower endpoint's denominator)."""
    if k < 0:
        return CertifiedInterval.point(0)
    iv = _coerce(z_point)
    if iv.lo < 0:
        raise ValueError("Phi enclosure requires a nonnegative argument")
    p = max(128, 8 + iv.lo.denominator.bit_length())
    zlo, _ = _to_scaled(iv.lo, p)
    _, zhi = _to_scaled(iv.hi, p)
    cap = PHI_BOUND << p
    vhi = _phi_ceil(k, zhi, p, cap)
    if vhi > cap:
        raise PrecisionExhausted(
            f"Phi evaluation exceeded bound {PHI_BOUND}; point too far past the singularity"
        )
    vlo = _phi_floor(k, zlo, p, cap)
    scale = 1 << p
    return CertifiedInterval(Fraction(vlo, scale), Fraction(max(vlo, vhi), scale))


# ---------------------------------------------------------------------------
# the singularity xi_k


# Half-width of the certified window around the float estimate, in units of
# 2^-64.  Float Newton lands within 2^-53 of xi_k for k <= 512; the window
# is 2^-48 wide on each side.
_CUT_MARGIN = 1 << 16


def _xi_estimate(k: int) -> float:
    """Float Newton estimate of xi_k (k >= 1), approached from the right.

    Starts at 1/4 + (pi/(k+4))^2, right of the root: pi/sqrt(xi_k - 1/4) - k
    rises from 4.18 at k = 1 towards 5.65.  Phi_k is increasing and convex,
    so the iterates decrease until float noise stops them.
    """
    z = 0.25 + (pi / (k + 4)) ** 2
    for _ in range(100):
        v = d = 0.0
        for _ in range(k + 1):
            v, d = z + v * v, 1 + 2 * v * d
        step = (v - 1) / d
        if not step > z * 2.0**-52:
            break
        z -= step
    return z


def _certified_cuts(k: int, a: int, b: int, p: int) -> tuple[int, int]:
    """Grid points a < lo < hi < b with Phi_k(lo) < 1 < Phi_k(hi) certified
    at precision p, by the ceil track at lo and the floor track at hi,
    placed around the float estimate of xi_k; (a, b) when the estimate is
    not finite or a certificate fails."""
    g = _xi_estimate(k)
    if isfinite(g):
        c = int(ldexp(g, p))
        lo, hi = c - _CUT_MARGIN, c + _CUT_MARGIN
        one = 1 << p
        if (
            a < lo
            and hi < b
            and _phi_ceil(k, lo, p, one) < one
            and _phi_floor(k, hi, p, one) > one
        ):
            return lo, hi
    return a, b


@lru_cache(maxsize=None)
def xi(k: int, tol: Fraction = DEFAULT_TOL) -> CertifiedInterval:
    """Certified enclosure of the root of Phi_k(z) = 1, of width <= tol.

    Bisection on [1/4, 1] with exact endpoint certificates
    Phi_k(lo) < 1 < Phi_k(hi); an undecided midpoint comparison doubles the
    working precision, up to MAX_BITS.  xi_0 = 1 exactly.

    Midpoints whose side is already known are not evaluated.  At a fixed
    precision p, _phi_cmp_one(k, m, p) is nondecreasing in m: both tracks
    are monotone in z, and a track stopped past 1 reads as the full one
    would.  So once lo and hi are certified with signs -1 and +1 (see
    _certified_cuts), every midpoint m <= lo has side -1 and every
    m >= hi has side +1, exactly what evaluating it would return: the
    bisection path, and hence the interval, is the one plain bisection
    gives.  A failed certificate leaves plain bisection; so does an
    escalation of p, since the cuts were certified at the old precision.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k == 0:
        return CertifiedInterval(Fraction(1), Fraction(1))
    p = 64
    one = 1 << p
    a, b = one // 4, one
    if not (_phi_ceil(k, a, p, one) < one and _phi_floor(k, b, p, one) > one):
        raise AssertionError("bracket endpoints failed to certify")
    lo, hi = _certified_cuts(k, a, b, p)
    while (b - a) * tol.denominator > tol.numerator << p:
        m = (a + b) // 2
        # A one-ulp bracket cannot shrink further at this precision.
        if m in (a, b):
            side = 0
        elif m <= lo:
            side = -1
        elif m >= hi:
            side = 1
        else:
            side = _phi_cmp_one(k, m, p)
        if side < 0:
            a = m
        elif side > 0:
            b = m
        else:
            if 2 * p > MAX_BITS:
                raise PrecisionExhausted(
                    f"xi_{k}: precision budget {MAX_BITS} bits exhausted at "
                    f"width {b - a}*2^-{p}"
                )
            a, b, p = a << p, b << p, 2 * p
            # No later midpoint lies outside (a, b): skipping ends.
            lo, hi = a, b
    return CertifiedInterval(Fraction(a, 1 << p), Fraction(b, 1 << p))


@dataclass(frozen=True)
class LimitFractions:
    """Certified n -> infinity limits of the B(n, k) statistics, fixed k."""

    xi: CertifiedInterval
    isolated_fraction: CertifiedInterval
    bprime_density: CertifiedInterval


def limit_fractions(k: int, tol: Fraction = DEFAULT_TOL) -> LimitFractions:
    """xi_k, p(k) and the B' density at a given k >= 1."""
    if k < 1:
        raise ValueError("limit fractions need k >= 1")
    x = xi(k, tol)
    pinf = x * (1 - phi_at(k - 1, x)).squared()
    if (1 - pinf).lo <= 0:
        raise PrecisionExhausted(
            f"1 - p_inf at k = {k} is not bounded away from 0 at tol {tol}"
        )
    return LimitFractions(
        xi=x, isolated_fraction=pinf, bprime_density=(4 - 4 * x) / (1 - pinf)
    )
