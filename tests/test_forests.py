"""Marked forests, the six partial actions, and the B(n,k) families."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdensity import census, forests, group
from fdensity.errors import CapExceeded


def test_tree_codec_round_trip():
    for text in (".", "(..)", "((..).)", "(.(..))", "((..)(..))"):
        assert forests.encode_tree(forests.decode_tree(text)) == text
    with pytest.raises(ValueError):
        forests.decode_tree("(.")
    with pytest.raises(ValueError):
        forests.decode_tree("(..))")


def test_tree_counts_match_catalan_when_height_free():
    # With no effective height bound the count is the Catalan number.
    for n in range(1, 9):
        assert len(forests.enumerate_trees(n, n - 1)) == math.comb(
            2 * (n - 1), n - 1
        ) // n


def test_count_trees_exact_height():
    # leaves=4: 5 trees total; heights 2 and 3 split as 1 + 4.
    assert forests.count_trees_exact_height(4, 2) == 1
    assert forests.count_trees_exact_height(4, 3) == 4
    assert forests.count_trees_exact_height(4, 1) == 0
    assert sum(forests.count_trees_exact_height(6, h) for h in range(6)) == 42


def test_forest_codec_round_trip_and_errors():
    f = forests.decode_forest("(..) *. ((..).)")
    assert f.n == 6
    assert f.mark == 1
    assert forests.encode_forest(f) == "(..) *. ((..).)"
    with pytest.raises(ValueError):
        forests.decode_forest(". .")  # no mark
    with pytest.raises(ValueError):
        forests.decode_forest("*. *.")  # two marks
    with pytest.raises(ValueError):
        forests.decode_forest("")


def test_counts_golden():
    assert forests.count_bb(3, 1) == 7
    assert forests.count_bb(14, 4) == 1433465
    assert forests.count_bb(5, 0) == 5
    assert forests.count_bb(1, 3) == 1


def test_count_bb_large_n_no_recursion_limit():
    # The sequence recursion runs bottom-up: n well past the interpreter's
    # recursion limit, checked against the independent series route.
    assert forests.count_bb(1200, 3) == census.census_counts(1200, 3, "dp").total


def test_tree_caches_hold_clamped_keys():
    # Heights are clamped to n - 1 before each recursive call, so a bound
    # k >= n adds O(n) cache entries, not O(n k).  Unbounded, B(n, k) is
    # counted by [z^n] C/(1 - C)^2 = [z^(n+2)] C^3 with C = z + C^2.
    n = 200
    forests.count_trees.cache_clear()
    forests._seq_counts.cache_clear()
    assert forests.count_bb(n, n) == 3 * math.comb(2 * n, n + 1) // (n + 2)
    assert forests.count_trees.cache_info().currsize <= n
    forests.enumerate_trees.cache_clear()
    assert len(forests.enumerate_trees(8, 50)) == math.comb(14, 7) // 8
    assert forests.enumerate_trees.cache_info().currsize <= 8


def test_enumerate_matches_count_on_grid():
    for n in range(1, 9):
        for k in range(0, 4):
            items = forests.enumerate_bb(n, k)
            assert len(items) == forests.count_bb(n, k)
            assert len(set(map(forests.encode_forest, items))) == len(items)


def test_enumerate_cap_refusal():
    with pytest.raises(CapExceeded) as exc:
        forests.enumerate_bb(20, 6, cap=1000)
    assert "4024782784" in str(exc.value)


def test_action_worked_examples():
    f = forests.decode_forest(". *(..) .")
    # x0 moves the mark left; x0^-1 moves it right.
    assert forests.encode_forest(forests.apply("x0", f)) == "*. (..) ."
    assert forests.encode_forest(forests.apply("x0^-1", f)) == ". (..) *."
    # x1 splits the marked caret and marks the left child.
    assert forests.encode_forest(forests.apply("x1", f)) == ". *. . ."
    # x1bar splits and marks the right child.
    assert forests.encode_forest(forests.apply("x1bar", f)) == ". . *. ."
    # x1^-1 merges the marked tree with its right neighbour.
    assert forests.encode_forest(forests.apply("x1^-1", f)) == ". *((..).)"
    # x1bar^-1 merges with the left neighbour.
    assert forests.encode_forest(forests.apply("x1bar^-1", f)) == "*(.(..)) ."


def test_action_partiality_at_edges():
    f = forests.decode_forest("*. .")
    assert forests.apply("x0", f) is None  # already leftmost
    assert forests.apply("x1", f) is None  # marked tree trivial
    assert forests.apply("x1bar", f) is None
    g = forests.decode_forest(". *.")
    assert forests.apply("x0^-1", g) is None  # already rightmost
    assert forests.apply("x1^-1", g) is None  # no right neighbour
    h = forests.decode_forest("*. .")
    assert forests.apply("x1bar^-1", h) is None  # no left neighbour


def test_apply_within_height_guard():
    # Merging two height-1 trees makes height 2: allowed in B(n,2), not B(n,1).
    f = forests.decode_forest("*(..) (..)")
    assert forests.apply("x1^-1", f) is not None
    assert forests.apply_within("x1^-1", f, 1) is None
    assert forests.apply_within("x1^-1", f, 2) is not None
    # The guard tests max of the two heights, not the marked height alone.
    g = forests.decode_forest("*. (..)")
    assert forests.apply_within("x1^-1", g, 1) is None
    assert forests.apply_within("x1^-1", g, 2) is not None


def test_actions_invert_each_other():
    pairs = [("x0", "x0^-1"), ("x1", "x1^-1"), ("x1bar", "x1bar^-1")]
    for n in range(1, 8):
        for k in range(0, 3):
            for f in forests.iter_bb(n, k):
                for a, b in pairs + [(y, x) for x, y in pairs]:
                    g = forests.apply_within(a, f, k)
                    if g is not None:
                        assert forests.apply_within(b, g, k) == f


def test_actions_stay_in_family():
    for n in range(1, 8):
        for k in range(0, 3):
            members = set(forests.enumerate_bb(n, k))
            for f in members:
                for lbl in forests.ACTION_LABELS:
                    g = forests.apply_within(lbl, f, k)
                    if g is not None:
                        assert g in members


def test_flat_moves_match_apply_within():
    # On every forest of B(n, k), the embedding's flat moves, decoded, are
    # the object model's actions, None where apply_within is None.
    for n in range(1, 9):
        for k in range(0, 4):
            emb = census.embed(n, k)
            decode = emb.table.decode
            assert {decode(key) for key in emb.flat} == set(forests.iter_bb(n, k))
            for key in emb.flat:
                f = decode(key)
                for label, g in zip(forests.ACTION_LABELS, emb.table.moves(key)):
                    expected = forests.apply_within(label, f, k)
                    got = None if g is None else decode(g)
                    assert got == expected, (label, forests.encode_forest(f), k)


def test_tree_table_interns_each_tree_once():
    table = forests.TreeTable(3)
    a = table.intern(0, 0)
    assert table.intern(0, 0) == a
    b = table.intern(a, 0)
    assert table.intern(a, 0) == b != a
    assert (table.kids[b], table.heights[b]) == ((a, 0), 2)
    assert table.decode(((b, a, 0), 1)) == forests.decode_forest("((..).) *(..) .")


def test_x1bar_is_x1_then_x0_inverse():
    # x1bar = x1 x0^-1 as group elements, hence as partial maps.
    steps = dict(group.GenSetSpec.extended().signed())
    assert steps["x1bar"] == group.multiply(steps["x1"], steps["x0^-1"])
    for f in forests.iter_bb(6, 5):
        via_x1 = forests.apply("x1", f)
        composite = forests.apply("x0^-1", via_x1) if via_x1 else None
        assert composite == forests.apply("x1bar", f)


def test_relator_acts_identically_where_defined():
    # Applying a label right-multiplies the group element, so the relation
    # x1 x0 = x0 x2 (with x2 = x0^-1 x1 x0) becomes an equality of label
    # sequences composed left to right, wherever both sides are defined.
    lhs_labels = ["x1", "x0"]
    rhs_labels = ["x0", "x0^-1", "x1", "x0"]
    hits = 0
    for f in forests.iter_bb(6, 5):
        lhs = forests.apply_word(lhs_labels, f)
        rhs = forests.apply_word(rhs_labels, f)
        if lhs is not None and rhs is not None:
            assert lhs == rhs
            hits += 1
    assert hits > 0


def test_is_isolated_golden():
    # Every vertex of B(n,0) is isolated; B(2,1) has none.
    assert all(forests.is_isolated(f, 0) for f in forests.iter_bb(5, 0))
    assert not any(forests.is_isolated(f, 1) for f in forests.iter_bb(2, 1))
    isolated31 = [
        forests.encode_forest(f)
        for f in forests.enumerate_bb(3, 1)
        if forests.is_isolated(f, 1)
    ]
    assert isolated31 == ["(..) *.", "*. (..)"]


@given(st.integers(1, 8), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_forest_text_round_trip(n, k, data):
    items = forests.enumerate_bb(n, k)
    f = data.draw(st.sampled_from(items))
    assert forests.decode_forest(forests.encode_forest(f)) == f
