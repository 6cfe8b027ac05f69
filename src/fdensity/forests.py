"""Marked binary forests and the partial actions of the generators of F.

A vertex of the graph model is a forest: a nonempty sequence of rooted
binary trees carrying exactly one marked tree.  B(n, k) is the set of such
forests with n leaves in total and every tree of height at most k.

Trees are nested pairs: a leaf is ``None``, an inner node is ``(left,
right)``.  Textual grammar (used verbatim in files and on the CLI):

    tree   := "." | "(" tree tree ")"
    forest := item (" " item)*
    item   := tree | "*" tree          -- exactly one item is starred

The six action labels match the signed generators of the extended set
{x0, x1, x1bar}; acting by a label corresponds to right multiplication by
that generator under the embedding into F (see census.embed):

    x0        move the mark one tree to the left
    x0^-1     move the mark one tree to the right
    x1        split the marked tree (child trees replace it; left marked)
    x1bar     same split, but the right child is marked
    x1^-1     merge the marked tree with its right neighbour (mark stays)
    x1bar^-1  merge the left neighbour with the marked tree (mark stays)

Each action is partial: ``apply`` returns None where undefined, and
``apply_within`` additionally returns None when a merge would create a tree
of height above k.
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


# ---------------------------------------------------------------------------
# trees


def leaves(t: Tree) -> int:
    if t is None:
        return 1
    return leaves(t[0]) + leaves(t[1])


def height(t: Tree) -> int:
    if t is None:
        return 0
    return 1 + max(height(t[0]), height(t[1]))


def encode_tree(t: Tree) -> str:
    if t is None:
        return "."
    return "(" + encode_tree(t[0]) + encode_tree(t[1]) + ")"


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
    """Number of trees with n leaves and height <= kmax, without
    materializing them."""
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
    return sum(map(mul, sub, reversed(sub)))


def count_trees_exact_height(n: int, h: int) -> int:
    """Number of trees with n leaves and height exactly h."""
    if h < 0 or (h > n - 1 and n > 1):
        return 0
    return count_trees(n, h) - (count_trees(n, h - 1) if h >= 1 else 0)


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

    @property
    def n(self) -> int:
        return sum(leaves(t) for t in self.trees)

    def __str__(self) -> str:
        return encode_forest(self)


def encode_forest(f: MarkedForest) -> str:
    return " ".join(
        ("*" if i == f.mark else "") + encode_tree(t) for i, t in enumerate(f.trees)
    )


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
# interned trees and the flat actions (the embedding's BFS)

# A flat forest: (tree ids, mark), the ids read in a TreeTable.
ForestKey = tuple[tuple[int, ...], int]


class TreeTable:
    """Interned trees of height at most k, and the six actions within
    B(n, k) on flat forest keys.

    Id 0 is the leaf; every other id is an inner node with children
    kids[id] = (left, right) and height heights[id].  A pair is interned
    once, so equal trees have equal ids and equal forests equal keys.
    `moves` agrees with `apply_within` label for label.
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
def _seq_counts(n: int, k: int) -> tuple[int, int]:
    """(number of tree sequences with n total leaves, total tree count over
    them), all heights <= k.  Built bottom-up over m = 0..n, so no
    recursion depth grows with n."""
    trees = [
        (ln, t) for ln in range(1, n + 1) if (t := count_trees(ln, min(k, ln - 1)))
    ]
    seqs = [1]
    marks = [0]
    for m in range(1, n + 1):
        s = b = 0
        for ln, t in trees:
            if ln > m:
                break
            s += t * seqs[m - ln]
            b += t * (marks[m - ln] + seqs[m - ln])
        seqs.append(s)
        marks.append(b)
    return (seqs[n], marks[n])


def count_bb(n: int, k: int) -> int:
    """|B(n, k)| by direct recursion over tree sequences."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _seq_counts(n, k)[1]


# Up to this many steps (n^2 min(k, n), about 50 ms) the exact |B(n, k)| is
# computed even for a census that is refused, so the message can name it.
_EXACT_COUNT_WORK = 10**6


def _count_bb_within_cap(n: int, k: int, cap: int) -> int:
    """|B(n, k)|, or CapExceeded when it is above cap.

    The exact count takes O(n^2 min(k, n)) steps; B(n, min(k, 2)) is a
    subset of B(n, k) counted in O(n).  When the exact count is costly and
    that subset alone is over the cap, the census is refused without it.
    """
    low = count_bb(n, min(k, 2))
    if low > cap and n * n * min(k, n) > _EXACT_COUNT_WORK:
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


def enumerate_bb(n: int, k: int, cap: int = 10**8) -> list[MarkedForest]:
    """All of B(n, k) in encode-lex order; refuses if the count exceeds cap."""
    _count_bb_within_cap(n, k, cap)
    out = list(iter_bb(n, k))
    out.sort(key=encode_forest)
    return out
