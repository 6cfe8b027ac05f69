"""Exact truncated power series over the integers, and the tree series.

Phi_k(z) counts rooted binary trees of height <= k by number of leaves:
Phi_0 = z and Phi_k = z + Phi_{k-1}^2.  The marked-forest counting series

    Psi_k(z) = Phi_k / (1 - Phi_k)^2

has [z^n] Psi_k = |B(n, k)|.  Every count over B(n, k) is a coefficient
of G, G^2 or S^2, where

    G = 1 / (1 - Phi_k)    and    S = (1 - Phi_{k-1}) G,

with Phi_{-1} = 0, so k = 0 works uniformly.  Phi_k G = G - 1 and
Phi_k - Phi_{k-1}^2 = z give four independent tallies (CensusTallies,
read by CountSeriesFamily.at; see count_series):

    total     all marked forests                        G^2 - G  (= Psi_k)
    trivial   marked tree a single leaf                 z G^2
    edge      mark on the first tree                    G - 1
    isolated  all four symmetric-set labels blocked     z S^2

so each tally is one [z^n] read, a dot product of two prefixes, not a
series product.  The blocked count of each of the six action labels is
one of them (CensusTallies.per_label_blocked): x0 is blocked exactly on
`edge`, x1 and x1bar exactly on `trivial`, and three more labels equal a
tally by an identity of the series, coefficient for coefficient:

    x0^-1     mark on the last tree                     = edge     (mirror)
    x1^-1     no merge with the right neighbour         = trivial
    x1bar^-1  no merge with the left neighbour          = trivial

The census walk counts x1^-1 blocked on its own, from adjacent tree
pairs, and census_counts checks it against `trivial`; the tests recount
all six labels from the actions.

A series through z^trunc is the tuple of its trunc + 1 int coefficients,
constant term first.  The module has no series class and no general
product: its kernels are functions on such tuples, square() for the Phi
chain, geometric() for G, and the dot product _conv, which reads each
coefficient of S = G - Phi_{k-1} G and each tally.  Support bound:
Phi_k has no term above z^(2^k) (a tree of height <= k has at most 2^k
leaves).  square(), geometric() and the S read clip their dot products
to the last nonzero coefficient, so for 2^k below the series order they
cost less than a full-order schoolbook product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul


def square(a: tuple) -> tuple:
    """The square of the series a, to its order, by half dot products: each
    cross term a_i a_(m-i) once, doubled, plus a_(m/2)^2 for even m; i runs
    over the support."""
    n = len(a) - 1
    top = _top(a)
    out = [0] * (n + 1)
    for m in range(min(n, 2 * top) + 1):
        lo = max(0, m - top)
        half = (m + 1) // 2
        c = 2 * sum(map(mul, a[lo:half], a[m - lo : m - half : -1]))
        if m % 2 == 0:
            c += a[m // 2] ** 2
        out[m] = c
    return tuple(out)


def geometric(a: tuple) -> tuple:
    """1 / (1 - a) to the order of a; requires zero constant term.

    out[m] = sum of c_i out[m-i] over 1 <= i <= min(m, top), where top
    is the last nonzero index of a.
    """
    if a[0] != 0:
        raise ValueError("geometric() needs zero constant term")
    c = a[1 : _top(a) + 1]
    out = [1]
    for _ in range(len(a) - 1):
        # map stops at the shorter of c_1..c_top and out[m-1], ..., out[0].
        out.append(sum(map(mul, c, reversed(out))))
    return tuple(out)


def _top(coeffs: tuple) -> int:
    """Index of the last nonzero coefficient; 0 for the zero series."""
    top = len(coeffs) - 1
    while top > 0 and not coeffs[top]:
        top -= 1
    return top


@lru_cache(maxsize=None)
def _phi_chain(trunc: int) -> list[tuple]:
    """The coefficients of [Phi_0, Phi_1, ...] through z^trunc, extended in
    place by phi."""
    if trunc < 1:
        raise ValueError("truncation order must be at least 1")
    return [(0, 1) + (0,) * (trunc - 1)]


def phi(k: int, trunc: int) -> tuple:
    """The coefficients of Phi_k through z^trunc; [z^n] counts binary trees
    with n leaves, height <= k.

    Each Phi_k not yet built costs one square() of the one before, in a
    loop, so no recursion depth grows with k.  The square has no term
    below z^2, so adding z sets its coefficients 0 and 1.
    """
    if k < 0:
        return (0,) * (trunc + 1)
    chain = _phi_chain(trunc)
    while len(chain) <= k:
        chain.append((0, 1) + square(chain[-1])[2:])
    return chain[k]


def _conv(a: tuple, b: tuple, m: int) -> int:
    """[z^m] of the product of the series with coefficients a and b."""
    if m < 0:
        return 0
    return sum(map(mul, a[: m + 1], b[m::-1]))


def _side(g: tuple, prev: tuple) -> tuple:
    """S = (1 - prev) G one coefficient at a time, s_m = g_m - [z^m] prev G,
    each a dot product over the support of prev."""
    p = prev[: _top(prev) + 1]
    return tuple(gm - _conv(p, g, m) for m, gm in enumerate(g))


# The tally equal to each action label's blocked count: by definition for
# x0, x1 and x1bar, by the identities of the module docstring for the rest.
_LABEL_TALLY = {
    "x0": "edge",
    "x0^-1": "edge",
    "x1": "trivial",
    "x1^-1": "trivial",
    "x1bar": "trivial",
    "x1bar^-1": "trivial",
}


@dataclass(frozen=True)
class CensusTallies:
    """The independent exact tallies over B(n, k) (module docstring)."""

    total: int
    trivial: int
    edge: int
    isolated: int

    def per_label_blocked(self) -> dict[str, int]:
        """The blocked count of each action label, read from its tally."""
        return {label: getattr(self, name) for label, name in _LABEL_TALLY.items()}


@dataclass(frozen=True)
class CountSeriesFamily:
    """The coefficients of the two series that every count over B(n, k) is
    read from, each a tuple through the series order.

    g:    G = 1/(1 - Phi_k)
    side: S = (1 - Phi_{k-1}) G = 1 + (Phi_k - Phi_{k-1}) G, the trees on
          one side of a trivial marked tree when that side blocks the
          merge: none, or a sequence whose tree next to the mark has
          height exactly k
    """

    g: tuple
    side: tuple

    def at(self, n: int) -> CensusTallies:
        """The tallies over B(n, k) as [z^n] reads: total = G^2 - G,
        trivial = z G^2, edge = G - 1 and isolated = z S^2."""
        g, s = self.g, self.side
        if not 0 <= n < len(g):
            raise ValueError(f"[z^{n}] is outside the series order {len(g) - 1}")
        return CensusTallies(
            total=_conv(g, g, n) - g[n],
            trivial=_conv(g, g, n - 1),
            edge=g[n] - (n == 0),
            isolated=_conv(s, s, n - 1),
        )


@lru_cache(maxsize=None)
def count_series(k: int, trunc: int) -> CountSeriesFamily:
    """G and S for B(n, k) through z^trunc; Phi_{-1} = 0 covers k = 0.

    A merge at the mark is blocked when the mark is at the boundary or one
    of the two trees involved has height exactly k; trees of height exactly
    k are counted by Phi_k - Phi_{k-1}.  By inclusion-exclusion

        x1^-1 blocked = Phi_k G + (Phi_k^2 - Phi_{k-1}^2) G^2
        isolated      = z (1 + (Phi_k - Phi_{k-1}) G)^2
        total         = Phi_k G^2,  edge = Phi_k G.

    Phi_k G = G - 1 and Phi_{k-1}^2 = Phi_k - z reduce these to the forms
    in CountSeriesFamily.at: the x1^-1 series, and its mirror x1bar^-1,
    equal z G^2 = trivial coefficientwise, which realises the per-label
    boundary balance exactly rather than just asymptotically.  S is read
    by dot products (_side).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    g = geometric(phi(k, trunc))
    return CountSeriesFamily(g=g, side=_side(g, phi(k - 1, trunc)))
