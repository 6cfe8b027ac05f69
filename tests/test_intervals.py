"""Certified interval arithmetic and the singularity enclosures xi_k."""

from fractions import Fraction
from math import isqrt, nan

import pytest

from fdensity import intervals
from fdensity.errors import PrecisionExhausted

F = Fraction


def test_interval_arithmetic():
    a = intervals.CertifiedInterval(F(1, 4), F(1, 2))
    b = intervals.CertifiedInterval(F(-1, 3), F(1, 3))
    assert (a + b).lo == F(-1, 12) and (a + b).hi == F(5, 6)
    assert (a - b).lo == F(-1, 12) and (a - b).hi == F(5, 6)
    assert (a * b).lo == F(-1, 6) and (a * b).hi == F(1, 6)
    assert (1 - a).lo == F(1, 2) and (1 - a).hi == F(3, 4)
    assert (a / a).lo == F(1, 2) and (a / a).hi == 2
    assert F(1, 3) in a and F(2, 3) not in a
    assert a.width == F(1, 4)


def test_interval_division_by_zero_interval():
    a = intervals.CertifiedInterval(F(1), F(2))
    z = intervals.CertifiedInterval(F(-1), F(1))
    with pytest.raises(ZeroDivisionError):
        a / z


def test_interval_squared_clamps_at_zero():
    b = intervals.CertifiedInterval(F(-1, 3), F(1, 2))
    sq = b.squared()
    assert sq.lo == 0 and sq.hi == F(1, 4)
    c = intervals.CertifiedInterval(F(-1, 2), F(-1, 3))
    assert c.squared().lo == F(1, 9) and c.squared().hi == F(1, 4)


def _phi_exact(k: int, z: Fraction) -> Fraction:
    v = F(0)
    for _ in range(k + 1):
        v = z + v * v
    return v


def test_phi_at_encloses_exact_rational_value():
    for k in range(0, 7):
        for z in (F(1, 4), F(3, 10), F(2, 5)):
            iv = intervals.phi_at(k, z)
            exact = _phi_exact(k, z)
            assert iv.lo <= exact <= iv.hi
            assert iv.width < F(1, 10**20)


def test_xi_zero_is_exactly_one():
    x = intervals.xi(0)
    assert x.lo == 1 and x.hi == 1


def test_xi_one_is_golden_ratio_conjugate():
    # xi_1 solves z + z^2 = 1, i.e. (sqrt(5)-1)/2.
    x = intervals.xi(1)
    P = 10**18
    s = isqrt(5 * P * P)
    glo = F(s - P, 2 * P)
    ghi = F(s + 1 - P, 2 * P)
    assert x.lo <= ghi and glo <= x.hi
    assert x.width <= F(1, 10**12)


def test_xi_at_root_phi_is_one():
    for k in (1, 2, 3, 8, 16):
        x = intervals.xi(k)
        iv = intervals.phi_at(k, x.mid, precision=256)
        assert iv.lo < 1 + F(1, 10**9)
        assert iv.hi > 1 - F(1, 10**9)


def test_xi_decreasing_and_above_quarter():
    prev = intervals.xi(0)
    for k in range(1, 17):
        cur = intervals.xi(k)
        assert cur.hi < prev.lo
        assert cur.lo > F(1, 4)
        prev = cur


def test_xi_64_golden_window():
    x = intervals.xi(64)
    assert F(2520375064, 10**10) < x.lo
    assert x.hi < F(2520375065, 10**10)
    assert x.width <= F(1, 10**12)


def _encloses(outer, inner):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def test_xi_respects_requested_tolerance():
    loose = intervals.xi(5, tol=F(1, 10**6))
    tight = intervals.xi(5, tol=F(1, 10**15))
    assert loose.width <= F(1, 10**6)
    assert tight.width <= F(1, 10**15)
    assert _encloses(loose, tight)


def test_precision_exhaustion_reported():
    with pytest.raises(PrecisionExhausted):
        intervals.xi(3, tol=F(1, 10**40), max_bits=96)


def test_limit_fractions_against_float_recurrence():
    for k in (1, 2, 3, 10, 32):
        lf = intervals.limit_fractions(k)
        xi = float(lf.xi.mid)
        phi_prev = 0.0
        for _ in range(k):
            phi_prev = xi + phi_prev * phi_prev
        pinf = xi * (1 - phi_prev) ** 2
        dsym = 4 - 4 * xi
        assert abs(float(lf.isolated_fraction.mid) - pinf) < 1e-9
        assert abs(float(lf.density_standard.mid) - (4 - 2 * xi)) < 1e-9
        assert abs(float(lf.density_symmetric.mid) - dsym) < 1e-9
        assert abs(float(lf.bprime_density.mid) - dsym / (1 - pinf)) < 1e-9
        assert abs(float(lf.doubling_ratio.mid) - 3 * xi) < 1e-9


def test_limit_fractions_requires_positive_k():
    with pytest.raises(ValueError):
        intervals.limit_fractions(0)


def _plain_xi(k, tol):
    # Bisection that evaluates every midpoint: the oracle for xi's skipping.
    p = 64
    a, b = (1 << p) // 4, 1 << p
    while Fraction(b - a, 1 << p) > tol:
        m = (a + b) // 2
        side = 0 if m in (a, b) else intervals._phi_cmp_one(k, m, m, p)
        if side < 0:
            a = m
        elif side > 0:
            b = m
        else:
            a, b, p = a << p, b << p, 2 * p
    return Fraction(a, 1 << p), Fraction(b, 1 << p)


_ORACLE_TOLS = (F(1, 10**6), F(1, 10**12), F(1, 10**18), F(1, 2**100))


def _assert_xi_matches_oracle(ks):
    for tol in _ORACLE_TOLS:
        for k in ks:
            intervals.xi.cache_clear()
            x = intervals.xi(k, tol)
            assert (x.lo, x.hi) == _plain_xi(k, tol), (k, tol)
    intervals.xi.cache_clear()


def test_xi_matches_plain_bisection():
    _assert_xi_matches_oracle([*range(1, 41), 64, 128, 300, 512])


@pytest.mark.parametrize(
    "wrong",
    [lambda g: g + 1e-6, lambda g: g - 1e-6, lambda g: nan, lambda g: 0.0,
     lambda g: 2.0],
    ids=["plus-1e-6", "minus-1e-6", "nan", "zero", "two"],
)
def test_xi_ignores_a_wrong_estimate(monkeypatch, wrong):
    real = intervals._xi_estimate
    monkeypatch.setattr(intervals, "_xi_estimate", lambda k: wrong(real(k)))
    _assert_xi_matches_oracle([1, 2, 5, 17, 48, 300])


def test_xi_skips_certified_midpoints(monkeypatch):
    # Two bracket certificates, two cut certificates, and at most a few
    # midpoints inside the cuts; plain bisection makes 42 sign tests.
    calls = []
    real = intervals._phi_cmp_one

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(intervals, "_phi_cmp_one", counting)
    intervals.xi.cache_clear()
    intervals.xi(512)
    intervals.xi.cache_clear()
    assert len(calls) <= 8
