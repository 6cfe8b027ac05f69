"""Graph statistics on B(n, k) and on arbitrary sets of group elements.

Two independent routes produce every count: `enumerate` walks the leaf
counts of B(n, k) with running sums per state of the last tree (`_walk`),
`dp` reads coefficients of the exact counting series; they must agree
integer-for-integer.  Each route is built once per k for a whole table:
one walk to the table's largest n tallies every smaller n on the way, as
one truncated series holds every coefficient below its order.  The walk
is bounded by its own cost (WALK_WORK_CAP); the enumeration cap bounds
only what visits forests, embed and forests.enumerate_bb.

Densities follow delta(Y) = degree_sum / #Y; together with the Cheeger
count #d*Y (directed edges leaving Y) this satisfies
delta(Y) + #d*Y/#Y = 2m exactly.  (Some sources abbreviate the numerator
2m#Y - #d*Y itself as the density; we always divide by #Y.)

The outer boundary dY (vertices outside Y adjacent to Y) leaves the forest
model, as some Cayley neighbours of B(n, k) are not n-leaf forests; still
CensusCounts.stats reads it from the tallies, by the proof it carries.
outer_boundary_exact counts it on the embedded image, multiplying every
(element, generator) pair itself, and outer_boundary_grid for every
B(n', k') with n' <= n, k' <= k from one embedding of B(n, k).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Optional

from .errors import CapExceeded
from .forests import (
    ACTION_LABELS,
    DEFAULT_CAP,
    ForestKey,
    MarkedForest,
    TreeTable,
    count_bb,
    count_trees,
    encode_forest,
    enumerate_bb,  # unused here; perfbench traces it as census.enumerate_bb
    _census_work,
    _count_bb_within_cap,
    _seq_counts,
)
from .group import (
    GenSetSpec,
    IDENTITY,
    NormalForm,
    compact_key,
    multiply,
)
from .series import CensusTallies, count_series

EMBED_N_CAP = 12
# The walk route's bound on _census_work(depth, k): 2.4e7 at (1017, 23),
# Theorem 1's once-peeled witness (9 s), 5.2e7 at (512, 200) (6 s).
WALK_WORK_CAP = 3 * 10**7

# The generator each action label multiplies by.
_ACTION_STEPS = dict(GenSetSpec.extended().signed())


class EmbeddingError(RuntimeError):
    """The BFS assignment hit an inconsistent or non-injective edge."""


# ---------------------------------------------------------------------------
# raw census counts (mode-dual)


def _walk(n: int, k: int) -> list[tuple[CensusTallies, int]]:
    """Tallies over B(s, k) for every s <= n, from one pass over s.

    The per-mark tally needs only the marked tree and its two neighbours:
    the mark's position, the marked tree being trivial, or a tree of
    height exactly k standing in the way of a merge.  So appending a tree
    to a tree sequence updates the sequence's sums from only the state of
    its last tree (trivial, height exactly k, left side blocked) and the
    new tree's leaf count and class.  The sums are the weight (number of
    sequences), trees (= marks), trivial trees, adjacent pairs containing
    a tree of height k, and isolated marks already closed (those whose
    right neighbour is chosen); slot s adds each state's open last mark.
    Sequences with equal leaf count and state share their sums: the
    transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7).

    ahead[state][sum][s] sums over the sequences with s leaves, each
    extended by one tree that is in that state, not yet weighted by that
    tree's count.  The sums at s are dot products of these columns with
    the tree counts by leaf count: at most 30 of length s per s, O(n^2)
    big-integer products in all, with no recursion and no walk over the
    height profiles, whose number grows exponentially in n.

    x1^-1 is blocked at the last mark and at the left mark of every pair,
    so its blocked count is the pair count plus one per sequence.  It
    equals `trivial` by an identity of the series, which census_counts
    checks; tests/test_walk.py recounts all six labels from the actions.
    This route shares no code with the series: it reads count_trees where
    the series squares its own Phi chain, and `isolated` from local states
    where the series reads z S^2.

    Returns, for s = 0..n, (tallies, merge_blocked): the four tallies and
    the x1^-1 blocked count.  Slot 0 is all zero.
    """
    # trees[cls][l]: l-leaf trees of class cls = (trivial, height exactly k)
    below = [0, 0] + [count_trees(l, k - 1) for l in range(2, n + 1)]
    trees = {(True, k == 0): [0, 1] + [0] * (n - 1)}
    if k:
        trees[False, True] = [0, 0] + [count_trees(l, k) - below[l] for l in range(2, n + 1)]
    if k > 1:
        trees[False, False] = below
    # A first tree: one sequence and one mark, no pair, its left side blocked.
    ahead = {(cls, left): [[v * left] + [0] * n for v in (1, 1, cls[0], 0, 0)]
             for cls in trees for left in (False, True)}
    slots = [(CensusTallies(0, 0, 0, 0), 0)]
    for s in range(1, n + 1):
        tally = [0] * 5
        for ((triv, top), left), cols in ahead.items():
            counts = trees[triv, top][s:0:-1]
            w, m, t, p, c = (sum(map(mul, counts, col)) for col in cols)
            open_iso = triv and (left or top)
            tally = [x + y for x, y in zip(tally, (m, t, w, c + w * open_iso, p + w))]
            for nxt in trees:
                b = top or nxt[1]
                sums = (w, m + w, t + w * nxt[0], p + w * b, c + w * (open_iso and b))
                for col, v in zip(ahead[nxt, top], sums):
                    col[s] += v
        slots.append((CensusTallies(*tally[:4]), tally[4]))
    return slots


@lru_cache(maxsize=None)
def _walked(depth: int, k: int) -> list[tuple[CensusTallies, int]]:
    """_walk to depth, once per (depth, k), as count_series holds one series
    per (k, order)."""
    return _walk(depth, k)


_FOREST_GENSETS = ("standard", "symmetric", "extended")


@dataclass(frozen=True)
class CensusCounts(CensusTallies):
    """The tallies over B(n, k) (CensusTallies), from either route, and what
    they give: the statistics of B(n, k) with its outer boundary, those of
    B'(n, k), and the doubling bound."""

    n: int
    k: int
    mode: str = field(compare=False)

    def stats(self, genset: GenSetSpec) -> "SubgraphStats":
        """Induced-subgraph statistics of B(n, k) under a named generating
        set, with #dY for Y its image in F: the sum of the set's blocked
        tallies, less trivial - edge when the set has both x1^-1 and
        x1bar^-1.  That is 2 trivial + 2 edge (standard), 3 trivial + edge
        (symmetric) and 3 trivial + 3 edge = doubling_bound() (extended).

        Proof.  Pad a forest on the right with trivial trees without end.
        Such forests over the leaves 0, 1, 2, ..., with finitely many
        carets and one marked tree, are the positive elements of F: mark on
        tree j and carets c read P = x0^j prod x_(1+l(c)), l(c) the leftmost
        leaf of c, in normal form; on the left, x0 moves the mark one tree
        right and x1 merges the marked tree with its right neighbour (Belk
        and Brown, IJAC 2005).  embed sends the base to the identity and
        each action edge to a right multiplication, so it sends f to
        P(f)^-1, a negative normal form, and the action of s on f to
        s^-1 P(f).  Let T_j be the marked tree, L its leftmost leaf and m
        the number of trees.  An unblocked action leads to the next forest;
        a blocked one to the endpoint (s^-1 P)^-1, outside Y by its reduced
        normal form.  Per label, where it is blocked, that form has a
        positive part:

          x0        j = 0            x0 (P+1)^-1
          x1bar^-1  j = 0            x0 (x1 (P+1))^-1
          x1        T_j trivial      x_(1+L) (x0^j R)^-1
          x1bar     T_j trivial      x_(1+L) (x0^(j+1) R)^-1

        where P+1 raises every letter of P by one, and R is P without its
        x0 letters, those above x_(1+L) raised by one (none is x_(1+L), as
        T_j is trivial); or it is the inverse of a padded forest outside
        the padded B(n, k):

          x0^-1     j = m - 1        the marked tree is the leaf n
          x1^-1     j = m - 1        a caret over leaves n - 1 and n
          x1^-1     j < m - 1        marked tree of height k + 1, leaves < n
          x1bar^-1  j > 0            marked tree of height k + 1, leaves < n

        y -> y*s is injective, so a label's endpoints number its blocked
        tally.  Endpoints of two labels meet only in the last two rows:
        - The positive part parts the first four rows from the last four,
          and the first two from the next two (1 + L >= 1).  When j = 0,
          P has no x0, so x1 is in the negative part of x1bar^-1's
          endpoint but not of x0's.
        - x1 at f and x1bar at f' meet only if L, R and so the carets agree
          and j = j' + 1 (the x0 counts), but L grows with j in one forest.
        - x0^-1's forest has heights <= k and no caret over leaf n; x1^-1's
          at j = m - 1 has such a caret; the last two rows have a tree of
          height k + 1 and no such caret.
        - The last two rows meet exactly as u*x1^-1 = (u*x0^-1)*x1bar^-1
          (x1^-1 x1bar = x0^-1 in F): splitting the marked tree of height
          k + 1 gives u with the left child marked and u*x0^-1 with the
          right one, both in B(n, k) and both blocked.  x1^-1 is blocked on
          `trivial` forests, `edge` of them on the last tree (the mirror of
          the first), so trivial - edge endpoints are met twice.
        """
        if genset.name not in _FOREST_GENSETS:
            raise ValueError(
                f"forest-model statistics support gensets {_FOREST_GENSETS}, "
                f"not {genset.name!r}"
            )
        blocked = self.per_label_blocked()
        labels = [label for label, _ in genset.signed()]
        # The two labels' endpoints met twice, trivial - edge of them.
        twice = {"x1^-1", "x1bar^-1"} <= set(labels)
        return SubgraphStats(
            vertices=self.total,
            blocked=tuple((label, blocked[label]) for label in labels),
            outer_boundary=sum(map(blocked.get, labels))
            - twice * (self.trivial - self.edge),
        )

    def bprime(self) -> "SubgraphStats":
        """Statistics of B'(n, k): B(n, k) minus its isolated vertices.

        An isolated vertex is blocked on all four symmetric-set labels, so
        removing it lowers each blocked count by one and keeps the degree
        sum; the density rises by the exact factor beta/(beta - isolated).
        """
        remaining = self.total - self.isolated
        if remaining == 0:
            raise ValueError(
                f"B'({self.n},{self.k}) is empty: "
                f"all {self.total} vertices are isolated"
            )
        blocked = self.stats(GenSetSpec.symmetric()).blocked
        return SubgraphStats(
            vertices=remaining,
            blocked=tuple((label, b - self.isolated) for label, b in blocked),
        )

    def doubling_bound(self) -> int:
        """Edge-selection bound on #dY for Y = B(n, k), extended set: exact.

        Every boundary vertex v keeps an edge back into Y, and mapping v to
        that endpoint is a bijection per category (stats proves the counts):

          v = u*x0 or u*x0^-1   (mark at an end)        2 * edge
          v = u*x1 or u*x1bar   (marked tree trivial)   2 * trivial
          v = u*x1^-1           (blocked merge right)   trivial, exactly the
                                blocked-merge count; every height-blocked
                                x1bar^-1 target also arises this way, since
                                splitting its k+1 caret the other way lands
                                back in Y
          v = u*x1bar^-1, u marked on the first tree (no
                                left neighbour to merge) edge

        Total: 3*trivial + 3*edge.  Since edge is o(|B(n,k)|), the ratio
        tends to 3 xi_k.
        """
        return 3 * self.trivial + 3 * self.edge


def census_counts(
    n: int,
    k: int,
    mode: str = "enumerate",
    trunc: Optional[int] = None,
) -> CensusCounts:
    """The tallies over B(n, k) by the chosen route.

    trunc is the dp series order and the enumerate walk's depth (default
    n; a larger order gives the same coefficients, as the prefix of a
    truncated product is stable, and a deeper walk the same slot n): a
    table passes its largest n, so every row reads one cached walk per k,
    as it reads one series.  The walk visits no forest, so no enumeration
    cap applies: enumerate and both raise CapExceeded when the walk's work
    _census_work(trunc, k) is over WALK_WORK_CAP, even where that at n is
    not.  The enumerate route checks the walk's total and edge tallies
    against slot n of the one recursion table per walk (_seq_counts), and
    its x1^-1 blocked count against `trivial` (the series identity; see
    CensusTallies.per_label_blocked).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if trunc is not None and trunc < n:
        raise ValueError(f"series truncation {trunc} cannot cover [z^{n}]")
    if mode == "both":
        a = census_counts(n, k, "enumerate", trunc)
        b = census_counts(n, k, "dp", trunc)
        if a != b:
            raise AssertionError(f"enumerate/dp disagree at n={n} k={k}: {a} {b}")
        return a
    if mode == "enumerate":
        depth = n if trunc is None else trunc
        work = _census_work(depth, k)
        if work > WALK_WORK_CAP:
            raise CapExceeded(
                f"census walk to depth {depth} at k = {k}: depth^2 max(1, "
                f"min(k, depth)) = {work} exceeds walk bound {WALK_WORK_CAP}"
            )
        tallies, merge_blocked = _walked(depth, k)[n]
        if (tallies.edge, tallies.total) != _seq_counts(depth, k)[n]:
            raise AssertionError(
                f"census walk counts disagree with recursion at n={n} k={k}"
            )
        if merge_blocked != tallies.trivial:
            raise AssertionError(
                f"census walk breaks the blocked-count identities at n={n} "
                f"k={k}: x1^-1 blocked {merge_blocked}, trivial {tallies.trivial}"
            )
    elif mode == "dp":
        tallies = count_series(k, n if trunc is None else trunc).at(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CensusCounts(n=n, k=k, mode=mode, **asdict(tallies))


# ---------------------------------------------------------------------------
# subgraph statistics


@dataclass(frozen=True)
class SubgraphStats:
    """Exact per-label edge statistics of a finite induced subgraph.

    For each signed generator a, blocked(a) vertices of Y send their
    a-edge out of Y, one Cheeger boundary edge each, and the other
    internal(a) = #Y - blocked(a) keep it inside.  outer_boundary is #dY
    in the Cayley graph (None where unknown, as for B'(n, k)).
    """

    vertices: int
    blocked: tuple[tuple[str, int], ...]
    outer_boundary: Optional[int] = None

    def __post_init__(self) -> None:
        if self.vertices <= 0:
            raise ValueError("statistics need a nonempty vertex set")
        for label, out in self.blocked:
            if not 0 <= out <= self.vertices:
                raise AssertionError(
                    f"label {label}: {out} blocked outside 0..{self.vertices}"
                )

    @property
    def internal(self) -> tuple[tuple[str, int], ...]:
        return tuple((label, self.vertices - out) for label, out in self.blocked)

    @property
    def m(self) -> int:
        if len(self.blocked) % 2:
            raise AssertionError("odd number of signed labels")
        return len(self.blocked) // 2

    @property
    def degree_sum(self) -> int:
        return 2 * self.m * self.vertices - self.cheeger_total

    @property
    def cheeger_total(self) -> int:
        return sum(c for _, c in self.blocked)

    @property
    def density(self) -> Fraction:
        return Fraction(self.degree_sum, self.vertices)

    def per_label_blocked(self) -> dict[str, int]:
        return dict(self.blocked)


def stats_elements(elements: Iterable[NormalForm], genset: GenSetSpec) -> SubgraphStats:
    """Exact induced-subgraph statistics over a finite set Y of elements.

    One pass over all 2m #Y products y*s (y in Y, s a signed generator)
    counts the edges leaving Y per label and collects their endpoints,
    whose number is the outer boundary #dY (a vertex set, so deduplicated
    by normal form).  It takes no record of where Y came from, so no
    product is trusted to land in Y unchecked.

    Y belongs to the caller; the endpoints are the only new elements the
    pass keeps, and they can outnumber Y several times (51 414 against
    11 932 for a four-word custom set on B(10, 3)).  So they are stored
    by group.compact_key, a length-prefixed bytes string (about 45 B
    there) that the cyclic GC does not track and that caches its hash,
    where a NormalForm is three tuples of about 200 B together.  An
    endpoint with an index of 256 or more, which bytes() refuses, is
    stored as its NormalForm; bytes never equal a tuple, so the set still
    holds exactly one key per distinct endpoint.
    """
    Y = elements if isinstance(elements, (set, frozenset)) else set(elements)
    if not Y:
        raise ValueError("statistics need a nonempty vertex set")
    blocked_counts = []
    outside: set[bytes | NormalForm] = set()
    for label, step in genset.signed():
        leaving = 0
        for y in Y:
            t = multiply(y, step)
            if t not in Y:
                outside.add(compact_key(t))
                leaving += 1
        blocked_counts.append((label, leaving))
    return SubgraphStats(
        vertices=len(Y), blocked=tuple(blocked_counts), outer_boundary=len(outside)
    )


# ---------------------------------------------------------------------------
# the embedding into the Cayley graph


@dataclass(frozen=True)
class Embedding:
    """Injective assignment of normal forms to B(n, k), BFS from the base.

    `flat` maps each forest's flat key (read in `table`) to its element,
    in BFS order; `assignment` decodes it to (forest, element) pairs when
    read.
    """

    n: int
    k: int
    flat: dict[ForestKey, NormalForm]
    table: TreeTable = field(repr=False, compare=False)
    _image: frozenset[NormalForm] = field(repr=False, compare=False)

    @property
    def assignment(self) -> tuple[tuple[MarkedForest, NormalForm], ...]:
        decode = self.table.decode
        return tuple((decode(key), nf) for key, nf in self.flat.items())

    def image(self) -> frozenset[NormalForm]:
        return self._image


def embed(
    n: int,
    k: int,
    cap: int = DEFAULT_CAP,
    _moves: Callable[[TreeTable, ForestKey], tuple] = TreeTable.moves,
) -> Embedding:
    """Embed B(n, k) into the Cayley graph of F.

    The all-trivial forest with leftmost mark goes to the identity; each
    action edge multiplies on the right by its generator.  Every edge is
    checked in both directions during the BFS, and the final assignment
    must be injective and cover all of B(n, k).  A blocked action makes
    no product; the edges leaving the image are stats_elements' to count.
    The BFS runs on flat forest keys over one TreeTable (`_moves` replaces
    its actions in negative controls).
    """
    if n > EMBED_N_CAP:
        raise CapExceeded(f"embed supports n <= {EMBED_N_CAP} (got n = {n})")
    size = _count_bb_within_cap(n, k, cap)
    table = TreeTable(k)
    base = ((0,) * n, 0)
    assigned: dict[ForestKey, NormalForm] = {base: IDENTITY}
    edges = [(label, _ACTION_STEPS[label]) for label in ACTION_LABELS]
    frontier = [(base, IDENTITY)]
    while frontier:
        nxt = []
        for f, e in frontier:
            for (label, step), g in zip(edges, _moves(table, f)):
                if g is None:
                    continue
                ge = multiply(e, step)
                seen = assigned.get(g)
                if seen is None:
                    assigned[g] = ge
                    nxt.append((g, ge))
                elif seen != ge:
                    raise EmbeddingError(
                        f"edge {label} at {encode_forest(table.decode(f))} "
                        f"gives {ge}, but {encode_forest(table.decode(g))} "
                        f"already carries {seen}"
                    )
        frontier = nxt
    if len(assigned) != size:
        raise EmbeddingError(
            f"B({n},{k}) not reached fully: {len(assigned)} of {size}"
        )
    image = frozenset(assigned.values())
    if len(image) != len(assigned):
        raise EmbeddingError(f"assignment over B({n},{k}) is not injective")
    return Embedding(n, k, assigned, table, image)


def outer_boundary_exact(
    n: int,
    k: int,
    genset: GenSetSpec,
    cap: int = DEFAULT_CAP,
) -> int:
    """#dY for Y = B(n, k) embedded in the Cayley graph."""
    emb = embed(n, k, cap)
    return stats_elements(emb.image(), genset).outer_boundary


def outer_boundary_grid(
    n: int,
    k: int,
    genset: GenSetSpec,
    cap: int = DEFAULT_CAP,
) -> dict[tuple[int, int], int]:
    """#dY for every Y = B(n', k') with n' <= n and k' <= k, keyed by
    (n', k'), from one embedding of B(n, k).

    A forest of B(n', k') padded on the right with n - n' trivial trees
    is a forest of B(n, k) with the same element.  The word that takes
    the base of B(n', k') to it takes the base of B(n, k) to the padded
    forest: its moves never reach the padding, and embed checks that
    every forest has one element.  In forest diagrams, a trailing leaf
    adds no caret (Belk and Brown, IJAC 2005).  So Y is the set of
    forests of B(n, k) whose last n - n' trees are trivial and right of
    the mark, and whose height is at most k'.

    Each endpoint y*s is read from the embedding where the action of s is
    defined within B(n, k), as the element of the forest it reaches, and
    multiplied once where it is blocked, kept by group.compact_key unless
    it is an element of B(n, k), as stats_elements keeps it.  The forests
    fall into cells by the least n' whose B(n', k') holds them and by
    their height; each cell lists its elements and their endpoints per
    label.  The embedding's dicts and sets are dropped before the rows.
    Along each k', B(n', k') grows by whole cells as n' rises; each row
    counts the distinct endpoints of its Y outside Y, the rule of
    stats_elements, after checking that |Y| = |B(n', k')|.
    """
    if genset.name not in _FOREST_GENSETS:
        raise ValueError(f"the boundary grid supports gensets {_FOREST_GENSETS}")
    emb = embed(n, k, cap)
    flat, image, table = emb.flat, emb.image(), emb.table
    steps = [_ACTION_STEPS[label] for label in ACTION_LABELS]
    # cells[n', height]: elements, then their endpoints per ACTION_LABELS
    cells = {(s, h): [[] for _ in range(7)]
             for s in range(1, n + 1) for h in range(k + 1)}
    for key, e in flat.items():
        ts, m = key
        pad = 0
        while pad < len(ts) - 1 - m and not ts[-1 - pad]:
            pad += 1
        cell = cells[n - pad, max(map(table.heights.__getitem__, ts))]
        cell[0].append(e)
        for col, step, g in zip(cell[1:], steps, table.moves(key)):
            if g is not None:
                col.append(flat[g])
            else:
                t = multiply(e, step)
                col.append(t if t in image else compact_key(t))
    del emb, flat, image, table
    cols = [1 + ACTION_LABELS.index(label) for label, _ in genset.signed()]
    grid = {}
    for kk in range(k + 1):
        inside, outside = set(), set()
        for nn in range(1, n + 1):
            for h in range(kk + 1):
                inside.update(cells[nn, h][0])
                for c in cols:
                    outside.update(cells[nn, h][c])
            outside -= inside
            if len(inside) != count_bb(nn, kk):
                raise EmbeddingError(f"B({n},{k}) does not pad B({nn},{kk}) exactly")
            grid[nn, kk] = len(outside)
    return grid
