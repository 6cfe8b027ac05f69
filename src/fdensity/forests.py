"""Marked binary forests and the partial actions of the generators of F.

A vertex of the graph model is a forest: a nonempty sequence of rooted
binary trees carrying exactly one marked tree.  B(n, k) is the set of such
forests with n leaves in total and every tree of height at most k.

Trees are nested pairs: a leaf is ``None``, an inner node is ``(left,
right)``.  Forests are written in this grammar, the CLI's output format;
its decoder lives in the tests:

    tree   := "." | "(" tree tree ")"
    forest := item (" " item)*
    item   := tree | "*" tree          -- exactly one item is starred

The six action labels match the signed generators of the extended set
{x0, x1, x1bar}; acting by a label corresponds to right multiplication by
that generator under the embedding into F (see census.embed).
`TreeTable.moves` defines them on interned forests:

    x0        move the mark one tree to the left
    x0^-1     move the mark one tree to the right
    x1        split the marked tree (child trees replace it; left marked)
    x1bar     same split, but the right child is marked
    x1^-1     merge the marked tree with its right neighbour (mark stays)
    x1bar^-1  merge the left neighbour with the marked tree (mark stays)

Each action is partial: a move has no tree to go to at an end of the
forest, a leaf does not split, a merge needs a neighbour, and within
B(n, k) a merge is blocked when it would create a tree of height above k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterator, Optional

from .errors import CapExceeded

Tree = Optional[tuple]

LEAF: Tree = None

ACTION_LABELS = ("x0", "x0^-1", "x1", "x1^-1", "x1bar", "x1bar^-1")

# The most forests embed or enumerate_bb visits unless given a cap.
DEFAULT_CAP = 10**8


# ---------------------------------------------------------------------------
# trees


def height(t: Tree) -> int:
    if t is None:
        return 0
    return 1 + max(height(t[0]), height(t[1]))


def encode_tree(t: Tree) -> str:
    if t is None:
        return "."
    return "(" + encode_tree(t[0]) + encode_tree(t[1]) + ")"


@lru_cache(maxsize=None)
def enumerate_trees(n: int, kmax: int) -> tuple[Tree, ...]:
    """All trees with n leaves and height <= kmax, in encode-lex order."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    kmax = min(kmax, n - 1)
    if n == 1:
        return (LEAF,)
    if kmax < 1 or n > 2**kmax:
        return ()
    # Subtrees by leaf count m, with the height bound clamped as inside the
    # call so that the cache holds one key per value.
    sub = [enumerate_trees(m, min(kmax - 1, m - 1)) for m in range(1, n)]
    out = []
    for ln in range(1, n):
        for lt in sub[ln - 1]:
            for rt in sub[n - ln - 1]:
                out.append((lt, rt))
    return tuple(sorted(out, key=encode_tree))


@lru_cache(maxsize=None)
def count_trees(n: int, kmax: int) -> int:
    """Number of trees with n leaves and height <= kmax, from half of the
    symmetric convolution of the subtree counts, as series.square does."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    kmax = min(kmax, n - 1)
    if n == 1:
        return 1
    if kmax < 1 or (n - 1) >> kmax:
        return 0
    # Subtree counts by leaf count m, with the height bound clamped as inside
    # the call so that the cache holds one key per value.
    sub = [count_trees(m, min(kmax - 1, m - 1)) for m in range(1, n)]
    half = (n - 1) // 2
    middle = sub[half] ** 2 if (n - 1) % 2 else 0
    return 2 * sum(map(mul, sub[:half], reversed(sub))) + middle


# ---------------------------------------------------------------------------
# marked forests


@dataclass(frozen=True)
class MarkedForest:
    trees: tuple[Tree, ...]
    mark: int

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest has at least one tree")
        if not 0 <= self.mark < len(self.trees):
            raise ValueError(f"mark {self.mark} out of range")


def encode_forest(f: MarkedForest) -> str:
    return " ".join(
        ("*" if i == f.mark else "") + encode_tree(t) for i, t in enumerate(f.trees)
    )


def is_isolated(f: MarkedForest, k: int) -> bool:
    """All four symmetric-set actions blocked within height k: the marked
    tree is a leaf, so it cannot split, and on each side the forest ends
    or the neighbour has height k, so it cannot merge."""
    ts, m = f.trees, f.mark
    return (
        ts[m] is None
        and (m == 0 or height(ts[m - 1]) >= k)
        and (m == len(ts) - 1 or height(ts[m + 1]) >= k)
    )


# ---------------------------------------------------------------------------
# interned trees and the flat actions (the embedding's BFS)

# A flat forest: (tree ids, mark), the ids read in a TreeTable.
ForestKey = tuple[tuple[int, ...], int]


class TreeTable:
    """Interned trees of height at most k, and the six actions within
    B(n, k) on flat forest keys.

    Id 0 is the leaf; every other id is an inner node with children
    kids[id] = (left, right) and height heights[id].  A pair is interned
    once, so equal trees have equal ids and equal forests equal keys.
    `moves` is checked against the object model in `tests/oracles.py`.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.kids: list[Optional[tuple[int, int]]] = [None]
        self.heights = [0]
        self._ids: dict[tuple[int, int], int] = {}
        self._trees: list[Tree] = [LEAF]

    def intern(self, left: int, right: int) -> int:
        pair = (left, right)
        t = self._ids.get(pair)
        if t is None:
            t = self._ids[pair] = len(self.kids)
            self.kids.append(pair)
            heights = self.heights
            heights.append(1 + max(heights[left], heights[right]))
        return t

    def moves(self, key: ForestKey) -> tuple[Optional[ForestKey], ...]:
        """The images of a forest under ACTION_LABELS, in that order; None
        where an action is undefined or a merge would exceed height k."""
        ts, m = key
        last = len(ts) - 1
        t = ts[m]
        if t:
            left, right = self.kids[t]
            split = ts[:m] + (left, right) + ts[m + 1:]
            x1, x1bar = (split, m), (split, m + 1)
        else:
            x1 = x1bar = None
        heights, k = self.heights, self.k
        low = heights[t] < k
        return (
            (ts, m - 1) if m else None,
            (ts, m + 1) if m < last else None,
            x1,
            (ts[:m] + (self.intern(t, ts[m + 1]),) + ts[m + 2:], m)
            if m < last and low and heights[ts[m + 1]] < k
            else None,
            x1bar,
            (ts[:m - 1] + (self.intern(ts[m - 1], t),) + ts[m + 1:], m - 1)
            if m and low and heights[ts[m - 1]] < k
            else None,
        )

    def decode(self, key: ForestKey) -> MarkedForest:
        trees = self._trees
        # Children are interned before their parent, so one pass in id
        # order decodes every id not yet decoded.
        for left, right in self.kids[len(trees):]:
            trees.append((trees[left], trees[right]))
        ts, m = key
        return MarkedForest(tuple(trees[t] for t in ts), m)


def moves_x1bar_as_x1(
    table: TreeTable, key: ForestKey
) -> tuple[Optional[ForestKey], ...]:
    """A broken action for negative controls: x1bar moves as x1 does."""
    x0, x0inv, x1, x1inv, _, x1barinv = table.moves(key)
    return x0, x0inv, x1, x1inv, x1, x1barinv


# ---------------------------------------------------------------------------
# enumeration of B(n, k)


@lru_cache(maxsize=None)
def _seq_counts(n: int, k: int) -> list[tuple[int, int]]:
    """For every m = 0..n, (number of tree sequences with m total leaves,
    total tree count over them), all heights <= k, in one bottom-up table
    per (n, k): no recursion depth grows with n.  Appending a last tree of
    l <= 2^k leaves to a sequence of m - l leaves adds one tree."""
    top = min(n, 2 ** min(k, n))
    trees = [count_trees(l, min(k, l - 1)) for l in range(1, top + 1)]
    seqs, marks = [1], [0]
    for _ in range(n):
        s = sum(map(mul, trees, reversed(seqs)))
        seqs.append(s)
        marks.append(s + sum(map(mul, trees, reversed(marks))))
    return list(zip(seqs, marks))


def count_bb(n: int, k: int) -> int:
    """|B(n, k)| by direct recursion over tree sequences."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _seq_counts(n, k)[n][1]


def _census_work(n: int, k: int) -> int:
    """The order of the products that count B(n, k) exactly: count_trees to
    (n, k) takes O(n^2 min(k, n)), a pass over leaf-count pairs O(n^2)."""
    return n * n * max(1, min(k, n))


# Up to this much work (about 50 ms) the exact |B(n, k)| is computed even
# for a census that is refused, so the message can name it.
_EXACT_COUNT_WORK = 10**6


def _count_bb_within_cap(n: int, k: int, cap: int) -> int:
    """|B(n, k)|, or CapExceeded when it is above cap.

    The exact count takes _census_work(n, k) steps; B(n, 2) is a subset of
    B(n, k) for k > 2, counted in O(n).  When the exact count is costly and
    that subset alone is over the cap, the census is refused without it.
    """
    low = count_bb(n, 2)
    if k > 2 and low > cap and _census_work(n, k) > _EXACT_COUNT_WORK:
        raise CapExceeded(
            f"|B({n},{k})| >= |B({n},2)| = {low} exceeds enumeration cap {cap}"
        )
    total = count_bb(n, k)
    if total > cap:
        raise CapExceeded(f"|B({n},{k})| = {total} exceeds enumeration cap {cap}")
    return total


def _iter_sequences(n: int, k: int) -> Iterator[tuple[Tree, ...]]:
    if n == 0:
        yield ()
        return
    for ln in range(1, n + 1):
        for t in enumerate_trees(ln, k):
            for rest in _iter_sequences(n - ln, k):
                yield (t,) + rest


def iter_bb(n: int, k: int) -> Iterator[MarkedForest]:
    """Yield all of B(n, k) (unsorted)."""
    for seq in _iter_sequences(n, k):
        for m in range(len(seq)):
            yield MarkedForest(seq, m)


def enumerate_bb(n: int, k: int, cap: int = DEFAULT_CAP) -> list[MarkedForest]:
    """All of B(n, k) in encode-lex order; refuses if the count exceeds cap."""
    _count_bb_within_cap(n, k, cap)
    out = list(iter_bb(n, k))
    out.sort(key=encode_forest)
    return out
