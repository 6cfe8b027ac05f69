"""The census walk against the object model, the series route, and a
deliberately broken height table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdensity import census, cli, forests, series


def _object_model_tallies(n: int, k: int):
    """The walk's tallies, per-label blocked counts and sequence count,
    recomputed forest by forest from the actions."""
    members = list(forests.iter_bb(n, k))
    tallies = series.CensusTallies(
        total=len(members),
        trivial=sum(1 for f in members if f.trees[f.mark] is None),
        edge=sum(1 for f in members if f.mark == 0),
        isolated=sum(1 for f in members if forests.is_isolated(f, k)),
    )
    blocked = {
        label: sum(1 for f in members if forests.apply_within(label, f, k) is None)
        for label in forests.ACTION_LABELS
    }
    return tallies, blocked, len({f.trees for f in members})


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(0, 4))
def test_walk_matches_object_model(n, k):
    walked = census._walk(n, k, census._height_table(n, k))
    assert walked == _object_model_tallies(n, k)


def test_walk_agrees_with_series_at_n18():
    c = census.census_counts(18, 4, "both")
    assert c.total == forests.count_bb(18, 4) == 90044420


def test_bumped_table_breaks_total(monkeypatch):
    n, k = 8, 3
    table = census._height_table(n, k)
    assert census._walk(n, k, table)[0].total == forests.count_bb(n, k)
    table[3][2] += 1
    assert census._walk(n, k, table)[0].total != forests.count_bb(n, k)
    # census_counts refuses the broken walk rather than reporting it.
    monkeypatch.setattr(census, "_height_table", lambda n, k: table)
    with pytest.raises(AssertionError):
        census.census_counts(n, k)


def test_bumped_label_tally_breaks_identities(monkeypatch, capsys):
    # Negative control: the walk's raw x1^-1 blocked count off by one
    # breaks the identity x1^-1 blocked = trivial, which census_counts
    # checks on every enumerate call.
    real = census._walk

    def bumped(*args):
        tallies, blocked, sequences = real(*args)
        return tallies, {**blocked, "x1^-1": blocked["x1^-1"] + 1}, sequences

    monkeypatch.setattr(census, "_walk", bumped)
    with pytest.raises(AssertionError, match="blocked-count identities"):
        census.census_counts(8, 3)
    assert cli.main(["density", "--n", "8", "--k", "3", "--mode", "enumerate"]) == 4
    assert "blocked-count identities" in capsys.readouterr().err
