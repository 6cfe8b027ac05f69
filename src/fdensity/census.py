"""Graph statistics on B(n, k) and on arbitrary sets of group elements.

Two independent routes produce every count: `enumerate` walks all of
B(n, k) by height profile (`_walk`), `dp` reads coefficients of the exact
counting series; they must agree integer-for-integer.  Each route is built
once per k for a whole table: one walk to the table's largest n tallies
every smaller n on the way, as one truncated series holds every
coefficient below its order.  The enumeration cap bounds that one walk,
so a table whose largest |B(n, k)| is over the cap is refused before any
row walks.

Densities follow delta(Y) = degree_sum / #Y; together with the Cheeger
count #d*Y (directed edges leaving Y) this satisfies
delta(Y) + #d*Y/#Y = 2m exactly.  (Some sources abbreviate the numerator
2m#Y - #d*Y itself as the density; we always divide by #Y.)

The outer boundary dY (vertices outside Y adjacent to Y) is computed only
in the element model via the embedding of B(n, k) into the Cayley graph,
since some Cayley neighbours of B(n, k) are not n-leaf marked forests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Iterable, Mapping, Optional

from .errors import CapExceeded
from .forests import (
    ACTION_LABELS,
    DEFAULT_CAP,
    ForestKey,
    MarkedForest,
    TreeTable,
    count_trees_exact_height,
    encode_forest,
    enumerate_bb,  # unused here; perfbench traces it as census.enumerate_bb
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

# The generator each action label multiplies by, and the label of each.
_ACTION_STEPS = dict(GenSetSpec.extended().signed())
_STEP_LABELS = {step: label for label, step in _ACTION_STEPS.items()}


class EmbeddingError(RuntimeError):
    """The BFS assignment hit an inconsistent or non-injective edge."""


# ---------------------------------------------------------------------------
# raw census counts (mode-dual)


def _height_table(n: int, k: int) -> list[list[int]]:
    """table[l][h] = trees with l leaves and height exactly h (row 0 zero)."""
    return [
        [count_trees_exact_height(l, h) for h in range(k + 1)] if l else [0] * (k + 1)
        for l in range(n + 1)
    ]


def _walk(n: int, k: int, table: list[list[int]]) -> list[tuple[CensusTallies, int]]:
    """Exhaustive tallies over B(s, k) for every s <= n, from one walk.

    The walk chooses, left to right, each tree's leaf count l and exact
    height h, so it visits each height profile (h_1 ... h_m) once,
    weighted by the number of concrete tree sequences sharing it (the
    product of the table[l][h] entries along the way).  Every node is a
    forest: a prefix of trees with s leaves is a tree sequence of B(s, k),
    and the walk to depth n reaches each one exactly once, so each node
    tallies its m marks into slot s (and its one sequence into `edge`,
    the marks on the first tree).

    The per-mark tally needs only the marked tree and its two neighbours:
    the mark's position, the marked tree being trivial, or a tree of
    height exactly k standing in the way of a merge.  So the walk carries
    the running sums down instead of looping over the marks: the number
    of trees, of trivial trees, of adjacent pairs containing a tree of
    height k, and of isolated marks already closed (a mark whose right
    neighbour is chosen), with the last tree's height and whether its
    left side is blocked.  Appending a tree closes the mark before it; a
    node adds its open last mark when it tallies.  That is O(1) work per
    node.

    x1^-1 is blocked at the last mark and at the left mark of every such
    pair, so its blocked count is the pair count plus one per sequence.
    It equals `trivial` by an identity of the series, which census_counts
    checks; tests/test_walk.py recounts all six labels from the actions.

    Returns, for s = 0..n, (tallies, merge_blocked): the four tallies and
    the x1^-1 blocked count.  Slot 0 is all zero.
    """
    # fits[rem]: every (leaf count, height, count) of a tree within rem leaves
    fits = [
        [(l, h, c) for l in range(1, rem + 1) for h, c in enumerate(table[l]) if c]
        for rem in range(n + 1)
    ]
    total = [0] * (n + 1)
    trivial = [0] * (n + 1)
    edge = [0] * (n + 1)
    isolated = [0] * (n + 1)
    merge_blocked = [0] * (n + 1)

    def rec(s, m, triv, pair, closed, last, left, w):
        top = last == k
        open_iso = last == 0 and (left or top)
        total[s] += w * m
        trivial[s] += w * triv
        edge[s] += w
        isolated[s] += w * (closed + open_iso)
        merge_blocked[s] += w * (pair + 1)
        for l, h, c in fits[n - s]:
            b = top or h == k
            rec(s + l, m + 1, triv + (h == 0), pair + b, closed + (open_iso and b),
                h, top, w * c)

    for l, h, c in fits[n]:
        rec(l, 1, h == 0, 0, 0, h, True, c)
    return [
        (CensusTallies(total[s], trivial[s], edge[s], isolated[s]), merge_blocked[s])
        for s in range(n + 1)
    ]


@lru_cache(maxsize=None)
def _walked(depth: int, k: int) -> list[tuple[CensusTallies, int]]:
    """_walk to depth on the exact-height table, once per (depth, k), as
    count_series holds one series per (k, order)."""
    return _walk(depth, k, _height_table(depth, k))


_FOREST_GENSETS = ("standard", "symmetric", "extended")


@dataclass(frozen=True)
class CensusCounts(CensusTallies):
    """The tallies over B(n, k) (CensusTallies), from either route, and what
    they give: the forest-model statistics, those of B'(n, k), and the
    doubling bound."""

    n: int
    k: int
    mode: str = field(compare=False)

    def stats(self, genset: GenSetSpec) -> "SubgraphStats":
        """Induced-subgraph statistics of B(n, k) under a named generating set."""
        if genset.name not in _FOREST_GENSETS:
            raise ValueError(
                f"forest-model statistics support gensets {_FOREST_GENSETS}, "
                f"not {genset.name!r}"
            )
        blocked = self.per_label_blocked()
        return SubgraphStats(
            vertices=self.total,
            blocked=tuple((label, blocked[label]) for label, _ in genset.signed()),
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
        """Edge-selection upper bound on #dY for Y = B(n, k), extended set.

        Every boundary vertex v keeps an edge back into Y, and mapping v to
        that endpoint is injective per label.  Category counts:

          v = u*x0 or u*x0^-1   (mark at an end)        <= 2 * edge
          v = u*x1 or u*x1bar   (marked tree trivial)   <= 2 * trivial
          v = u*x1^-1           (blocked merge right)   <= trivial, exactly the
                                blocked-merge count; every height-blocked
                                x1bar^-1 target also arises this way, since
                                splitting its k+1 caret the other way lands
                                back in Y
          v = u*x1bar^-1, u marked on the first tree (no
                                left neighbour to merge) <= edge

        Total: 3*trivial + 3*edge.  Since edge is o(|B(n,k)|), the ratio
        tends to 3 xi_k.
        """
        return 3 * self.trivial + 3 * self.edge


def census_counts(
    n: int,
    k: int,
    mode: str = "enumerate",
    cap: int = DEFAULT_CAP,
    trunc: Optional[int] = None,
) -> CensusCounts:
    """The tallies over B(n, k) by the chosen route.

    trunc is the dp series order and the enumerate walk's depth (default
    n; a larger order gives the same coefficients, as the prefix of a
    truncated product is stable, and a deeper walk the same slot n): a
    table passes its largest n, so every row reads one cached walk per k,
    as it reads one series.  The cap bounds |B(trunc, k)|, the census the
    walk builds, so enumerate and both raise CapExceeded when that is over
    the cap, even if |B(n, k)| is within it.

    The enumerate route checks the walk's total and edge tallies against
    the recursion, and its x1^-1 blocked count against `trivial` (the
    series identity; see CensusTallies.per_label_blocked).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if trunc is not None and trunc < n:
        raise ValueError(f"series truncation {trunc} cannot cover [z^{n}]")
    if mode == "both":
        a = census_counts(n, k, "enumerate", cap, trunc)
        b = census_counts(n, k, "dp", cap, trunc)
        if a != b:
            raise AssertionError(f"enumerate/dp disagree at n={n} k={k}: {a} {b}")
        return a
    if mode == "enumerate":
        depth = n if trunc is None else trunc
        _count_bb_within_cap(depth, k, cap)
        tallies, merge_blocked = _walked(depth, k)[n]
        if (tallies.edge, tallies.total) != _seq_counts(n, k):
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
    internal(a) = #Y - blocked(a) keep it inside.  outer_boundary is #dY,
    known only in the element model (None for forest-model statistics).
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


def stats_elements(
    elements: Iterable[NormalForm],
    genset: GenSetSpec,
    blocked: Optional[Mapping[str, Collection[NormalForm]]] = None,
) -> SubgraphStats:
    """Exact induced-subgraph statistics over a finite set Y of elements.

    One pass over the products y*s (y in Y, s a signed generator) counts
    the edges leaving Y per label and collects their endpoints, whose
    number is the outer boundary #dY (a vertex set, so deduplicated by
    normal form).

    Y belongs to the caller; the endpoints are the only new elements the
    pass keeps, and they can outnumber Y several times (51 414 against
    11 932 for a four-word custom set on B(10, 3)).  So they are stored
    by group.compact_key, a length-prefixed bytes string (about 45 B
    there) that the cyclic GC does not track and that caches its hash,
    where a NormalForm is three tuples of about 200 B together.  An
    endpoint with an index of 256 or more, which bytes() refuses, is
    stored as its NormalForm; bytes never equal a tuple, so the set still
    holds exactly one key per distinct endpoint.

    `blocked` is an embedding's record (`Embedding.blocked`) for Y its
    image.  A generator whose normal form is an action step then
    multiplies only the elements whose forest has that action blocked:
    the embedding has checked every other product to land in Y.  Other
    generators multiply all of Y.
    """
    Y = elements if isinstance(elements, (set, frozenset)) else set(elements)
    if not Y:
        raise ValueError("statistics need a nonempty vertex set")
    blocked_counts = []
    outside: set[bytes | NormalForm] = set()
    for label, step in genset.signed():
        candidates = Y
        if blocked is not None and step in _STEP_LABELS:
            candidates = blocked[_STEP_LABELS[step]]
        leaving = 0
        for y in candidates:
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
    read.  `blocked` maps each action label to the elements whose forest
    has that action blocked within B(n, k), also in BFS order.
    """

    n: int
    k: int
    flat: dict[ForestKey, NormalForm]
    table: TreeTable = field(repr=False, compare=False)
    blocked: dict[str, list[NormalForm]]
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
    must be injective and cover all of B(n, k).  The BFS runs on flat
    forest keys over one TreeTable (`_moves` replaces its actions in
    negative controls).
    """
    if n > EMBED_N_CAP:
        raise CapExceeded(f"embed supports n <= {EMBED_N_CAP} (got n = {n})")
    size = _count_bb_within_cap(n, k, cap)
    table = TreeTable(k)
    base = ((0,) * n, 0)
    assigned: dict[ForestKey, NormalForm] = {base: IDENTITY}
    blocked = {label: [] for label in ACTION_LABELS}
    edges = [(label, _ACTION_STEPS[label], blocked[label]) for label in ACTION_LABELS]
    frontier = [(base, IDENTITY)]
    while frontier:
        nxt = []
        for f, e in frontier:
            for (label, step, blocked_e), g in zip(edges, _moves(table, f)):
                if g is None:
                    blocked_e.append(e)
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
    return Embedding(n, k, assigned, table, blocked, image)


def outer_boundary_exact(
    n: int,
    k: int,
    genset: GenSetSpec,
    cap: int = DEFAULT_CAP,
) -> int:
    """#dY for Y = B(n, k) embedded in the Cayley graph."""
    emb = embed(n, k, cap)
    return stats_elements(emb.image(), genset, emb.blocked).outer_boundary
