"""The census walk against the object model, the series route, and
deliberately broken tree counts and tallies."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdensity import census, cli, forests, series

import oracles


def _object_model_slot(n: int, k: int):
    """The walk's slot n, (tallies, x1^-1 blocked), recomputed forest by
    forest from the actions, once all six recounted labels are those the
    tallies give and the number of tree sequences is the edge tally."""
    members = list(forests.iter_bb(n, k))
    tallies = series.CensusTallies(
        total=len(members),
        trivial=sum(1 for f in members if f.trees[f.mark] is None),
        edge=sum(1 for f in members if f.mark == 0),
        isolated=sum(1 for f in members if oracles.is_isolated(f, k)),
    )
    blocked = {
        label: sum(1 for f in members if oracles.apply_within(label, f, k) is None)
        for label in forests.ACTION_LABELS
    }
    assert blocked == tallies.per_label_blocked(), (n, k)
    assert len({f.trees for f in members}) == tallies.edge, (n, k)
    return tallies, blocked["x1^-1"]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(0, 4))
def test_walk_matches_object_model(n, k):
    walked = census._walk(n, k)
    assert walked[n] == _object_model_slot(n, k)


def test_walk_tallies_every_depth():
    # One walk to N tallies B(s, k) at every s <= N, slot 0 being empty.
    oracle = {
        (s, k): _object_model_slot(s, k) for s in range(10) for k in range(5)
    }
    for n in range(1, 10):
        for k in range(5):
            walked = census._walk(n, k)
            assert walked == [oracle[s, k] for s in range(n + 1)], (n, k)


@pytest.fixture
def fresh_walks():
    """An empty walk cache, so that a patched walk really runs, and none of
    its walks kept for later tests."""
    census._walked.cache_clear()
    yield
    census._walked.cache_clear()


def test_walk_matches_series_every_slot_at_n64(monkeypatch, fresh_walks):
    # Every slot of one walk to 64, read through the census: each row
    # checks its slot against the series, the x1^-1 identity and slot n of
    # one recursion table.  A walk over height profiles would not finish
    # at this depth.
    n, k = 64, 6
    real = census._walk
    walks = []
    monkeypatch.setattr(census, "_walk", lambda *a: walks.append(a[:2]) or real(*a))
    forests._seq_counts.cache_clear()
    fam = series.count_series(k, n)
    for s in range(1, n + 1):
        assert census.census_counts(s, k, "both", n).total == fam.at(s).total, s
    assert walks == [(n, k)] and forests._seq_counts.cache_info().misses == 1
    assert census._walked(n, k)[0] == (series.CensusTallies(0, 0, 0, 0), 0)


def test_walk_agrees_with_series_at_n18():
    c = census.census_counts(18, 4, "both")
    assert c.total == forests.count_bb(18, 4) == 90044420


def test_bumped_tree_count_breaks_total(monkeypatch, fresh_walks):
    # Negative control: the walk reads one tree count off by one, the
    # 3-leaf trees of height at most k, while the recursion that checks it
    # (forests._seq_counts) reads the true counts.
    n, k = 8, 3
    real = forests.count_trees
    assert census._walk(n, k)[n][0].total == forests.count_bb(n, k)
    monkeypatch.setattr(
        census, "count_trees", lambda l, h: real(l, h) + ((l, h) == (3, k))
    )
    assert census._walk(n, k)[n][0].total != forests.count_bb(n, k)
    # census_counts refuses the broken walk rather than reporting it.
    with pytest.raises(AssertionError, match="disagree with recursion"):
        census.census_counts(n, k)


def test_bumped_label_tally_breaks_identities(monkeypatch, capsys, fresh_walks):
    # Negative control: the walk's x1^-1 blocked count (its pair count
    # plus one per sequence) off by one breaks the identity x1^-1 blocked
    # = trivial, which census_counts checks on every enumerate call.
    real = census._walk

    def bumped(*args):
        return [
            (tallies, merge_blocked + 1) for tallies, merge_blocked in real(*args)
        ]

    monkeypatch.setattr(census, "_walk", bumped)
    with pytest.raises(AssertionError, match="blocked-count identities"):
        census.census_counts(8, 3)
    assert cli.main(["density", "--n", "8", "--k", "3", "--mode", "enumerate"]) == 4
    assert "blocked-count identities" in capsys.readouterr().err


def test_bumped_edge_tally_disagrees_with_recursion(monkeypatch, capsys, fresh_walks):
    # Negative control: the walk's edge tally off by one disagrees with the
    # recursion's count of tree sequences, which census_counts checks on
    # every enumerate call.
    real = census._walk

    def bumped(*args):
        return [
            (dataclasses.replace(tallies, edge=tallies.edge + 1), merge_blocked)
            for tallies, merge_blocked in real(*args)
        ]

    monkeypatch.setattr(census, "_walk", bumped)
    with pytest.raises(AssertionError, match="disagree with recursion"):
        census.census_counts(8, 3)
    assert cli.main(["density", "--n", "8", "--k", "3", "--mode", "both"]) == 4
    assert "disagree with recursion" in capsys.readouterr().err
