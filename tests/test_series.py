"""Truncated integer series: the generating-function counting path."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdensity import census, cli, forests, series


def test_series_arithmetic():
    a = series.TruncatedSeries((1, 2, 3))
    b = series.TruncatedSeries((0, 1, 0))
    assert a.trunc == 2
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - b).coeffs == (1, 1, 3)
    assert (a * b).coeffs == (0, 1, 2)
    assert a[2] == 3


def test_geometric_requires_zero_constant_term():
    inv = series.z(5).geometric()  # 1/(1-z) through z^5
    assert inv.coeffs == (1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        series.one(4).geometric()


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_geometric_inverts(coeffs):
    f = series.TruncatedSeries(tuple([0] + coeffs))
    g = f.geometric()
    # g * (1 - f) = 1
    product = g * (series.one(f.trunc) - f)
    assert product.coeffs[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


# A series whose last nonzero coefficient sits at a chosen index, padded
# with trailing zeros, so the support clip in square() and geometric()
# cuts the loops short of the series order.
_supported = st.builds(
    lambda body, last, pad: tuple(body) + (last,) + (0,) * pad,
    st.lists(st.integers(-50, 50), max_size=8),
    st.integers(-50, 50).filter(bool),
    st.integers(0, 6),
)


@given(_supported)
@settings(max_examples=120, deadline=None)
def test_square_matches_product(coeffs):
    f = series.TruncatedSeries(coeffs)
    assert f.square() == f * f


@pytest.mark.parametrize("coeffs", [(0,), (3,), (-2,), (0, 0, 0, 0), (1, 0, 0)])
def test_square_zero_and_order_zero(coeffs):
    f = series.TruncatedSeries(coeffs)
    assert f.square() == f * f


def _geometric_oracle(f):
    """1/(1 - f) by the full-length recurrence out[m] = sum c_i out[m-i]."""
    c = f.coeffs
    out = [1]
    for m in range(1, len(c)):
        out.append(sum(c[i] * out[m - i] for i in range(1, m + 1)))
    return tuple(out)


@given(_supported, st.integers(4, 16))
@settings(max_examples=80, deadline=None)
def test_geometric_matches_full_recurrence(coeffs, pad):
    f = series.TruncatedSeries((0,) + coeffs + (0,) * pad)
    assert f.geometric().coeffs == _geometric_oracle(f)


def test_geometric_of_zero_series():
    assert series.zero(6).geometric() == series.one(6)


def test_phi_matches_count_trees_below_order():
    # For k <= 5, Phi_k stops at z^(2^k), well before the order 64, and
    # count_trees(n, k) = 0 for n > 2^k checks that nothing lies beyond.
    for k in range(0, 8):
        p = series.phi(k, 64)
        assert p.coeffs == (0,) + tuple(forests.count_trees(n, k) for n in range(1, 65))
        assert p.geometric().coeffs == _geometric_oracle(p)


def test_phi_small_cases():
    # Phi_0 = z, Phi_1 = z + z^2, Phi_2 = z + (z + z^2)^2.
    assert series.phi(0, 5).coeffs == (0, 1, 0, 0, 0, 0)
    assert series.phi(1, 5).coeffs == (0, 1, 1, 0, 0, 0)
    assert series.phi(2, 5).coeffs == (0, 1, 1, 2, 1, 0)
    assert series.phi(-1, 3).coeffs == (0, 0, 0, 0)


def test_phi_counts_trees_by_exact_height_cumulative():
    for k in range(0, 6):
        p = series.phi(k, 9)
        for n in range(1, 9):
            expected = sum(
                forests.count_trees_exact_height(n, h) for h in range(0, k + 1)
            )
            assert p[n] == expected


def _psi(k, trunc):
    """Psi_k = Phi_k/(1-Phi_k)^2, whose [z^n] is |B(n, k)|."""
    p = series.phi(k, trunc)
    return p * p.geometric().square()


def test_psi_counts_bb():
    assert [_psi(1, 7)[n] for n in range(7)] == [0, 1, 3, 7, 15, 30, 58]
    for k in range(0, 5):
        p = _psi(k, 10)
        for n in range(1, 10):
            assert p[n] == forests.count_bb(n, k)


def test_catalan_series_identity():
    # C(z) = sum c_n z^(n+1) satisfies C = z + C^2.
    c = series.TruncatedSeries([0] + [series.catalan(n) for n in range(16)])
    assert c == series.z(16) + c.square()
    assert [series.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_prefix_of_phi():
    # Phi_k agrees with the Catalan series through degree k+1: trees with
    # at most k+1 leaves have height at most k.
    for k in range(0, 13):
        p = series.phi(k, k + 2)
        assert [p[n + 1] for n in range(k + 1)] == [
            series.catalan(n) for n in range(k + 1)
        ]


def _inclusion_exclusion_family(k, trunc):
    """The total, isolated and per-label blocked-count series by
    inclusion-exclusion, built product by product from Phi_k and
    Phi_{k-1}: an oracle independent of the G/S reduction in
    count_series."""
    p = series.phi(k, trunc)
    pprev = series.phi(k - 1, trunc)
    g = p.geometric()
    zs = series.z(trunc)
    edge = p * g
    merge = edge + (p * p - pprev * pprev) * g * g
    side = series.one(trunc) + (p - pprev) * g
    return {
        "total": p * g * g,
        "isolated": side * zs * side,
        "x0": edge,
        "x0^-1": edge,
        "x1": zs * g * g,
        "x1^-1": merge,
        "x1bar": zs * g * g,
        "x1bar^-1": merge,
    }


def test_count_series_matches_inclusion_exclusion():
    for k in range(0, 7):
        fam = series.count_series(k, 30)
        oracle = _inclusion_exclusion_family(k, 30)
        for n in range(0, 31):
            t = fam.at(n)
            read = {"total": t.total, "isolated": t.isolated, **t.per_label_blocked()}
            assert read == {name: s[n] for name, s in oracle.items()}, (k, n)


def test_count_series_at_rejects_out_of_order():
    fam = series.count_series(2, 8)
    with pytest.raises(ValueError):
        fam.at(9)


def test_count_series_family_identities():
    for k in range(0, 6):
        fam = series.count_series(k, 12)
        for n in range(13):
            # G^2 - G = Psi_k; the per-label identities are checked against
            # the inclusion-exclusion oracle above.
            assert fam.at(n).total == _psi(k, 12)[n]


def test_count_series_k0_everything_isolated():
    fam = series.count_series(0, 9)
    for n in range(1, 9):
        assert fam.at(n).isolated == n
        assert fam.at(n).total == n


def test_count_series_matches_enumeration():
    for k in range(0, 4):
        fam = series.count_series(k, 9)
        for n in range(1, 9):
            t = fam.at(n)
            members = forests.enumerate_bb(n, k)
            assert t.total == len(members)
            assert t.isolated == sum(1 for f in members if forests.is_isolated(f, k))
            assert t.trivial == sum(1 for f in members if f.trees[f.mark] is None)
            assert t.edge == sum(1 for f in members if f.mark == 0)


def _bump_g(monkeypatch, at=5):
    # Negative control: one G coefficient off by one.
    real = census.count_series

    def bumped(k, order):
        fam = real(k, order)
        g = list(fam.g.coeffs)
        g[at] += 1
        return dataclasses.replace(fam, g=series.TruncatedSeries(g))

    monkeypatch.setattr(census, "count_series", bumped)


def test_bumped_series_breaks_both_route(monkeypatch):
    assert census.census_counts(12, 4, "both").total == forests.count_bb(12, 4)
    _bump_g(monkeypatch)
    with pytest.raises(AssertionError):
        census.census_counts(12, 4, "both")


def test_bumped_series_exits_4(monkeypatch, capsys):
    _bump_g(monkeypatch)
    assert cli.main(["density", "--n", "12", "--k", "4", "--mode", "both"]) == 4
    assert "internal invariant violated" in capsys.readouterr().err
