"""Census statistics, the embedding oracle, and the doubling bound."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fdensity import census, forests, group
from fdensity.errors import CapExceeded

import oracles


def test_census_counts_dual_path_small_grid():
    for n in range(1, 9):
        for k in range(0, 5):
            both = census.census_counts(n, k, mode="both")
            assert both.total == forests.count_bb(n, k)


def test_census_counts_trunc_prefix_stable():
    # Reading [z^n] from a longer series gives the same tallies.
    a = census.census_counts(7, 2, "dp")
    b = census.census_counts(7, 2, "dp", trunc=25)
    assert a == b
    with pytest.raises(ValueError):
        census.census_counts(7, 2, "dp", trunc=3)


def test_census_counts_rule_based_oracle():
    # Count each statistic directly from the definitions on a small grid.
    for n in range(1, 7):
        for k in range(0, 3):
            c = census.census_counts(n, k)
            members = forests.enumerate_bb(n, k)
            assert c.trivial == sum(1 for f in members if f.trees[f.mark] is None)
            assert c.edge == sum(1 for f in members if f.mark == 0)
            assert c.per_label_blocked() == {
                label: sum(
                    1 for f in members if oracles.apply_within(label, f, k) is None
                )
                for label in forests.ACTION_LABELS
            }
            assert c.isolated == sum(
                1 for f in members if oracles.is_isolated(f, k)
            )


def test_stats_b21_symmetric_golden():
    st = census.census_counts(2, 1).stats(group.GenSetSpec.symmetric())
    assert st.vertices == 3
    assert st.degree_sum == 4
    assert st.density == Fraction(4, 3)
    assert st.cheeger_total == 8


def test_subgraph_stats_rejects_blocked_outside_range():
    # Negative control: a blocked count is a subset size of Y.
    census.SubgraphStats(vertices=3, blocked=(("x1", 0), ("x1^-1", 3)))
    for bad in (4, -1):
        with pytest.raises(AssertionError):
            census.SubgraphStats(vertices=3, blocked=(("x1", 1), ("x1^-1", bad)))


def test_handshake_identity_all_gensets():
    # The degree sum is the number of (forest, signed label) pairs whose
    # action stays inside B(n, k), counted in the object model.
    gensets = [
        group.GenSetSpec.standard(),
        group.GenSetSpec.symmetric(),
        group.GenSetSpec.extended(),
    ]
    for n in range(1, 10):
        for k in range(0, 4):
            within = Counter(
                label
                for f in forests.iter_bb(n, k)
                for label in forests.ACTION_LABELS
                if oracles.apply_within(label, f, k) is not None
            )
            for gs in gensets:
                st = census.census_counts(n, k).stats(gs)
                assert st.degree_sum == sum(within[lbl] for lbl, _ in gs.signed())


def test_per_label_boundary_pairing():
    # Blocked counts agree for each label and its inverse.
    for n in range(1, 10):
        for k in range(0, 4):
            st = census.census_counts(n, k).stats(group.GenSetSpec.extended())
            blocked = st.per_label_blocked()
            for lbl in ("x0", "x1", "x1bar"):
                assert blocked[lbl] == blocked[lbl + "^-1"], (n, k, lbl)


def test_stats_modes_agree():
    for n in (3, 7, 11):
        for k in (0, 1, 3):
            sym = group.GenSetSpec.symmetric()
            a = census.census_counts(n, k, mode="enumerate").stats(sym)
            b = census.census_counts(n, k, mode="dp").stats(sym)
            assert a == b


def test_isolated_count_goldens():
    assert census.census_counts(5, 0).isolated == 5
    assert census.census_counts(2, 1).isolated == 0
    assert census.census_counts(3, 1).isolated == 2


def test_bprime_census():
    st = census.census_counts(3, 1).bprime()
    assert st.vertices == 5
    assert st.density == Fraction(8, 5)
    # Dropping isolated vertices keeps the degree sum.
    full = census.census_counts(3, 1).stats(group.GenSetSpec.symmetric())
    assert st.degree_sum == full.degree_sum
    with pytest.raises(ValueError):
        census.census_counts(4, 0).bprime()  # every vertex isolated
    with pytest.raises(ValueError):
        census.census_counts(1, 2).bprime()


def test_bprime_density_majorizes_full():
    for n in range(2, 12):
        for k in range(1, 4):
            c = census.census_counts(n, k)
            if c.total == c.isolated:
                continue
            full = c.stats(group.GenSetSpec.symmetric())
            bp = c.bprime()
            assert bp.density >= full.density


def test_embed_b21_golden_mapping():
    emb = census.embed(2, 1)
    text = {
        forests.encode_forest(f): group.format_nf(g) for f, g in emb.assignment
    }
    assert text == {"*(..)": "X1", "*. .": "e", ". *.": "X0"}


def test_embed_b31_distinct_elements():
    emb = census.embed(3, 1)
    assert len(emb.assignment) == 7
    assert len(emb.image()) == 7


def test_embed_edge_consistency_spot():
    # Walking an edge in the forest model right-multiplies the element.
    emb = census.embed(4, 2)
    mapping = dict(emb.assignment)
    steps = dict(group.GenSetSpec.extended().signed())
    for f, g in mapping.items():
        for lbl in forests.ACTION_LABELS:
            img = oracles.apply_within(lbl, f, 2)
            if img is not None:
                assert mapping[img] == group.multiply(g, steps[lbl])


def test_embed_refuses_large_n():
    with pytest.raises(CapExceeded):
        census.embed(13, 1)


def test_embed_perturbed_action_detected():
    with pytest.raises(census.EmbeddingError):
        census.embed(3, 1, _moves=forests.moves_x1bar_as_x1)


def test_outer_boundary_golden():
    assert census.outer_boundary_exact(2, 1, group.GenSetSpec.symmetric()) == 8
    # The identity alone has the four distinct standard-set neighbours.
    assert census.outer_boundary_exact(1, 0, group.GenSetSpec.standard()) == 4


def test_transport_equality_forest_vs_element_model():
    emb = census.embed(6, 2)
    elements = emb.image()
    for gs in (
        group.GenSetSpec.standard(),
        group.GenSetSpec.symmetric(),
        group.GenSetSpec.extended(),
    ):
        forest_side = census.census_counts(6, 2).stats(gs)
        element_side = census.stats_elements(elements, gs)
        assert forest_side.vertices == element_side.vertices
        assert forest_side.degree_sum == element_side.degree_sum
        assert forest_side.cheeger_total == element_side.cheeger_total
        assert forest_side.per_label_blocked() == element_side.per_label_blocked()


# A custom set holding the action step x1bar under another spelling.
CUSTOM_WITH_STEP = group.GenSetSpec.custom(["x1 X0", "x0 x0", "x2"])


def _counting_multiply(monkeypatch):
    """Patch census.multiply and census.embed; count products made outside
    and inside the embedding's BFS."""
    real_embed, real_multiply = census.embed, census.multiply
    seen = {"bfs": 0, "stats": 0, "embedding": False}

    def counting_embed(*args, **kwargs):
        seen["embedding"] = True
        try:
            return real_embed(*args, **kwargs)
        finally:
            seen["embedding"] = False

    def counting_multiply(a, b):
        seen["bfs" if seen["embedding"] else "stats"] += 1
        return real_multiply(a, b)

    monkeypatch.setattr(census, "embed", counting_embed)
    monkeypatch.setattr(census, "multiply", counting_multiply)
    return seen


def test_outer_boundary_exact_multiplies_every_pair(monkeypatch):
    # The BFS makes one product per unblocked (forest, label) pair; the
    # statistics pass one per (element, signed generator) pair, blocked or
    # not, so it reads nothing from the BFS.
    seen = _counting_multiply(monkeypatch)
    ext = group.GenSetSpec.extended()
    for n, k in ((1, 0), (4, 1), (6, 2), (8, 3)):
        seen["bfs"] = seen["stats"] = 0
        census.outer_boundary_exact(n, k, ext)
        counts = census.census_counts(n, k)
        cheeger = counts.stats(ext).cheeger_total
        assert seen["stats"] == 6 * counts.total, (n, k)
        assert seen["bfs"] == 6 * counts.total - cheeger, (n, k)


def test_doubling_bound_holds_small_grid():
    # The edge-selection bound is |dY| itself, as CensusCounts.stats
    # proves; theorem2 still prints only <=.
    for n in range(1, 10):
        for k in range(0, 4):
            bound = census.census_counts(n, k).doubling_bound()
            outer = census.outer_boundary_exact(n, k, group.GenSetSpec.extended())
            assert outer == bound, (n, k, outer, bound)


def test_outer_boundary_grid_matches_exact():
    # One embedding of B(8, 3) gives #dY of every B(n, k) padded inside it,
    # and CensusCounts.stats reads the same #dY from the tallies.
    counts = {(n, k): census.census_counts(n, k) for n in range(1, 9) for k in range(4)}
    for gs in (
        group.GenSetSpec.standard(),
        group.GenSetSpec.symmetric(),
        group.GenSetSpec.extended(),
    ):
        exact = {(n, k): census.outer_boundary_exact(n, k, gs) for n, k in counts}
        assert census.outer_boundary_grid(8, 3, gs) == exact, gs.name
        formula = oracles.BOUNDARY_FORMULAS[gs.name]
        assert {nk: formula(c) for nk, c in counts.items()} == exact, gs.name
        assert {nk: c.stats(gs).outer_boundary for nk, c in counts.items()} == exact
        if gs.name == "symmetric":
            # Negative control: symmetric's coefficients swapped.
            swapped = {nk: c.trivial + 3 * c.edge for nk, c in counts.items()}
            assert swapped != exact


def _endpoint_sources(emb, genset):
    """Every endpoint y*s outside the embedded image, with the (label,
    element) pairs that reach it, from every pair of the image; an
    endpoint leaves the image exactly where y's forest has s blocked."""
    image = emb.image()
    sources = {}
    for key, y in emb.flat.items():
        moves = dict(zip(forests.ACTION_LABELS, emb.table.moves(key)))
        for label, step in genset.signed():
            t = group.multiply(y, step)
            assert (t not in image) == (moves[label] is None), (key, label)
            if t not in image:
                sources.setdefault(t, []).append((label, y))
    return sources


def test_outer_boundary_proof_one_coincidence():
    # The proof in CensusCounts.stats: the only endpoint two labels reach
    # is u*x1^-1 = (u*x0^-1)*x1bar^-1, at trivial - edge forests u.
    x0_inverse = group.invert(group.X0)
    for n in range(1, 9):
        for k in range(4):
            emb = census.embed(n, k)
            c = census.census_counts(n, k)
            for gs in (
                group.GenSetSpec.standard(),
                group.GenSetSpec.symmetric(),
                group.GenSetSpec.extended(),
            ):
                sources = _endpoint_sources(emb, gs)
                twice = [pairs for pairs in sources.values() if len(pairs) > 1]
                assert all(len(pairs) == 2 for pairs in twice)
                met = 0 if gs.name == "standard" else c.trivial - c.edge
                assert len(twice) == met, (n, k, gs.name)
                for (a, u), (b, v) in map(sorted, twice):
                    assert (a, b) == ("x1^-1", "x1bar^-1")
                    assert v == group.multiply(u, x0_inverse)


def test_outer_boundary_grid_multiplies_only_blocked(monkeypatch):
    # The BFS makes one product per unblocked (forest, label) pair of
    # B(n, k) and the grid one per blocked pair: 6 |B(n, k)| in all.
    seen = _counting_multiply(monkeypatch)
    ext = group.GenSetSpec.extended()
    census.outer_boundary_grid(6, 2, ext)
    counts = census.census_counts(6, 2)
    cheeger = counts.stats(ext).cheeger_total
    assert seen["stats"] == cheeger
    assert seen["bfs"] == 6 * counts.total - cheeger


def test_outer_boundary_grid_refuses_custom_sets():
    with pytest.raises(ValueError):
        census.outer_boundary_grid(3, 1, CUSTOM_WITH_STEP)


def test_doubling_ratio_tracks_3xi():
    # bound/#Y for B(n,2) approaches 3*xi_2 ~ 1.452 from above as n grows.
    c16 = census.census_counts(16, 2, "dp")
    c64 = census.census_counts(64, 2, "dp")
    r16 = Fraction(c16.doubling_bound(), c16.total)
    r64 = Fraction(c64.doubling_bound(), c64.total)
    assert Fraction(29, 20) < r64 < r16
    assert r64 < Fraction(9, 5)


def test_stats_elements_on_ball():
    gs = group.GenSetSpec.standard()
    elements = set(oracles.ball(gs, 2))
    st = census.stats_elements(elements, gs)
    assert st.vertices == 17
    # y -> y*a maps the a-edges inside Y onto the a^-1-edges inside Y.
    internal = dict(st.internal)
    for lbl, _ in gs.gens:
        assert internal[lbl] == internal[lbl + "^-1"]
    with pytest.raises(ValueError):
        census.stats_elements(set(), gs)


def _outer_boundary_oracle(elements, genset):
    """#dY by its definition, in a loop of its own: the neighbours y*s
    outside Y, deduplicated by normal form."""
    Y = set(elements)
    outside = set()
    for y in Y:
        for _, s in genset.signed():
            t = group.multiply(y, s)
            if t not in Y:
                outside.add(t)
    return len(outside)


def test_stats_elements_large_indices_match_definition():
    # bytes() refuses indices of 256 and more, so stats_elements keeps
    # those endpoints as NormalForms beside the bytes keys of the others.
    gs = group.GenSetSpec.custom(["x300", "x1", "X255 x2"])
    for Y in (census.embed(6, 2).image(), set(oracles.ball(gs, 2))):
        kinds = {
            type(group.compact_key(group.multiply(y, s)))
            for y in Y
            for _, s in gs.signed()
        }
        assert kinds == {bytes, group.NormalForm}
        blocked = tuple(
            (label, sum(group.multiply(y, s) not in Y for y in Y))
            for label, s in gs.signed()
        )
        expected = census.SubgraphStats(len(Y), blocked, _outer_boundary_oracle(Y, gs))
        assert census.stats_elements(Y, gs) == expected


def test_stats_elements_outer_boundary_matches_oracle():
    gensets = (
        group.GenSetSpec.standard(),
        group.GenSetSpec.symmetric(),
        group.GenSetSpec.extended(),
        group.GenSetSpec.custom(["x0 x1", "X2", "x1 x1"]),
    )
    ball5 = sorted(oracles.ball(group.GenSetSpec.standard(), 5), key=group.format_nf)
    rng = random.Random(4242)
    sets = [set(rng.sample(ball5, rng.randrange(1, len(ball5) + 1))) for _ in range(8)]
    sets += [census.embed(n, k).image() for n in range(1, 7) for k in range(0, 3)]
    for Y in sets:
        for gs in gensets:
            st = census.stats_elements(Y, gs)
            assert st.outer_boundary == _outer_boundary_oracle(Y, gs)
    # The forest model reads dY from its tallies.
    Y = census.embed(4, 1).image()
    for gs in gensets[:3]:
        st = census.census_counts(4, 1).stats(gs)
        assert st.outer_boundary == _outer_boundary_oracle(Y, gs)
