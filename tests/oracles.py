"""Test oracles: the object model of the forest actions, the forest
decoder, the normal-form conditions, balls in F, the outer-boundary
formulas, the Catalan numbers and the ring arithmetic of truncated series.

The package computes the actions one way only, `forests.TreeTable.moves`
on interned trees, and reads isolation from tree heights.  Here the six
actions are written again from their definitions on nested-pair trees,
so the tests can check the package against an implementation that does
not change along with it.  Likewise the package has no general series
product (`series` squares, inverts and reads dot products); here the
schoolbook product is written from its definition.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from fdensity.errors import CapExceeded
from fdensity.forests import MarkedForest, Tree, height
from fdensity.group import IDENTITY, GenSetSpec, NormalForm, multiply


# ---------------------------------------------------------------------------
# the text grammar of trees and forests, read back


def _decode_tree(text: str, i: int) -> tuple[Tree, int]:
    if i >= len(text):
        raise ValueError(f"unexpected end of input at position {i}")
    ch = text[i]
    if ch == ".":
        return None, i + 1
    if ch == "(":
        left, i = _decode_tree(text, i + 1)
        right, i = _decode_tree(text, i)
        if i >= len(text) or text[i] != ")":
            raise ValueError(f"expected ')' at position {i}")
        return (left, right), i + 1
    raise ValueError(f"unexpected character {ch!r} at position {i}")


def decode_tree(text: str) -> Tree:
    t, i = _decode_tree(text, 0)
    if i != len(text):
        raise ValueError(f"trailing input at position {i}")
    return t


def decode_forest(text: str) -> MarkedForest:
    items = text.split(" ")
    trees = []
    mark = None
    for idx, item in enumerate(items):
        if not item:
            raise ValueError(f"empty forest item at index {idx}")
        body = item
        if item[0] == "*":
            if mark is not None:
                raise ValueError(f"second mark at item {idx}")
            mark = idx
            body = item[1:]
        trees.append(decode_tree(body))
    if mark is None:
        raise ValueError("no marked tree")
    return MarkedForest(tuple(trees), mark)


# ---------------------------------------------------------------------------
# the six partial actions on nested-pair trees


def apply(label: str, f: MarkedForest) -> Optional[MarkedForest]:
    """The partial action of one signed generator; None where undefined."""
    ts, m = f.trees, f.mark
    if label == "x0":
        if m == 0:
            return None
        return MarkedForest(ts, m - 1)
    if label == "x0^-1":
        if m == len(ts) - 1:
            return None
        return MarkedForest(ts, m + 1)
    if label in ("x1", "x1bar"):
        t = ts[m]
        if t is None:
            return None
        split = ts[:m] + (t[0], t[1]) + ts[m + 1:]
        return MarkedForest(split, m if label == "x1" else m + 1)
    if label == "x1^-1":
        if m == len(ts) - 1:
            return None
        merged = ts[:m] + ((ts[m], ts[m + 1]),) + ts[m + 2:]
        return MarkedForest(merged, m)
    if label == "x1bar^-1":
        if m == 0:
            return None
        merged = ts[:m - 1] + ((ts[m - 1], ts[m]),) + ts[m + 1:]
        return MarkedForest(merged, m - 1)
    raise ValueError(f"unknown action label {label!r}")


def apply_within(label: str, f: MarkedForest, k: int) -> Optional[MarkedForest]:
    """Like apply, but blocked when a merge would exceed height k."""
    if label == "x1^-1":
        m = f.mark
        if m == len(f.trees) - 1:
            return None
        if max(height(f.trees[m]), height(f.trees[m + 1])) >= k:
            return None
    elif label == "x1bar^-1":
        m = f.mark
        if m == 0:
            return None
        if max(height(f.trees[m - 1]), height(f.trees[m])) >= k:
            return None
    return apply(label, f)


def apply_word(labels: list[str], f: MarkedForest, k: int = -1) -> Optional[MarkedForest]:
    """Compose partial actions left to right; k < 0 means unbounded."""
    g: Optional[MarkedForest] = f
    for label in labels:
        if g is None:
            return None
        g = apply(label, g) if k < 0 else apply_within(label, g, k)
    return g


def is_isolated(f: MarkedForest, k: int) -> bool:
    """All four symmetric-set actions blocked within height k."""
    return all(
        apply_within(label, f, k) is None
        for label in ("x1", "x1^-1", "x1bar", "x1bar^-1")
    )


# ---------------------------------------------------------------------------
# the element model


def is_normal(nf: NormalForm) -> bool:
    """Check every normal-form condition."""
    p, q = nf.pos, nf.neg
    if any(p[t] > p[t + 1] for t in range(len(p) - 1)):
        return False
    if any(q[t] > q[t + 1] for t in range(len(q) - 1)):
        return False
    if any(i < 0 for i in p + q):
        return False
    if p and q and p[-1] == q[-1]:
        return False
    common = set(p) & set(q)
    present = set(p) | set(q)
    return all(i + 1 in present for i in common)


def ball(genset: GenSetSpec, radius: int, cap: int = 10**7) -> dict[NormalForm, int]:
    """All elements within word-length `radius`, mapped to their distance."""
    steps = [g for _, g in genset.signed()]
    dist: dict[NormalForm, int] = {IDENTITY: 0}
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        layer = []
        for g in frontier:
            for s in steps:
                h = multiply(g, s)
                if h not in dist:
                    if len(dist) >= cap:
                        raise CapExceeded(
                            f"ball of radius {radius} exceeds cap {cap}"
                        )
                    dist[h] = r
                    layer.append(h)
        frontier = sorted(layer)
    return dist


# ---------------------------------------------------------------------------
# the outer boundary of B(n, k), as the statement CensusCounts.stats proves

# #dY for Y = B(n, k) embedded in F, per named set, from the tallies (the
# package derives it label by label instead).
BOUNDARY_FORMULAS = {
    "standard": lambda c: 2 * c.trivial + 2 * c.edge,
    "symmetric": lambda c: 3 * c.trivial + c.edge,
    "extended": lambda c: 3 * c.trivial + 3 * c.edge,
}


# ---------------------------------------------------------------------------
# series


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class Series:
    """A polynomial in z modulo z^(trunc+1) with the ring operations
    written from their definitions: the product is the schoolbook sum
    out[i + j] += a[i] b[j] over i + j <= trunc, with no support clip."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _order(self, other: "Series") -> int:
        if self.trunc != other.trunc:
            raise ValueError("truncation orders differ")
        return self.trunc

    def __add__(self, other: "Series") -> "Series":
        self._order(other)
        return Series(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        self._order(other)
        return Series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        n = self._order(other)
        out = [0] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return Series(out)


def series_one(trunc: int) -> Series:
    return Series([1] + [0] * trunc)
