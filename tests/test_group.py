"""Normal-form arithmetic in F and the presentation checks."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdensity import census, group
from fdensity.errors import CapExceeded

import oracles


def test_parse_format_round_trip():
    w = group.parse_word("x0 X1 x3 X0")
    assert w == ((0, 1), (1, -1), (3, 1), (0, -1))
    assert group.format_word(w) == "x0 X1 x3 X0"
    assert group.parse_word("e") == ()
    assert group.format_word(()) == "e"


def test_parse_word_rejects_garbage():
    for bad in ("y0", "x", "x-1", "x0x1", ""):
        with pytest.raises(ValueError):
            group.parse_word(bad)


def test_normalize_rejects_non_unit_signs():
    # A NormalForm is not a word: read as letters, its parts ((0, 1) and
    # (2, 3) here) would pass for x0 x2 unless the signs are checked.
    for bad in (group.NormalForm((0, 1), (2, 3)), ((0, 2),), ((1, 0),)):
        with pytest.raises(ValueError, match="sign"):
            group.normalize(bad)


def test_normalize_basic_examples():
    # x1 x0 = x0 x2 is the first defining relation.
    lhs = group.normalize(group.parse_word("x1 x0"))
    rhs = group.normalize(group.parse_word("x0 x2"))
    assert lhs == rhs
    assert lhs.pos == (0, 2) and lhs.neg == ()


def test_normalize_commutator_value():
    # [x0, x1] = x0^-1 x1^-1 x0 x1 has normal form x1 x3^-1.
    c = group.commutator(group.X0, group.X1)
    assert c == group.parse_nf("X0 X1 x0 x1") == group.parse_nf("x1 X3")
    assert c.pos == (1,) and c.neg == (3,)
    assert not c.is_identity()


def test_normal_form_validator():
    assert oracles.is_normal(group.parse_nf("x0 x2 X4 X0"))
    # Reduction condition: 1 in both parts requires 2 in some part.
    assert not oracles.is_normal(group.NormalForm(pos=(1,), neg=(1,)))
    assert oracles.is_normal(group.NormalForm(pos=(1, 2), neg=(1,)))
    # Weakly increasing indices are required.
    assert not oracles.is_normal(group.NormalForm(pos=(2, 1), neg=()))


def test_inverse_and_identity():
    g = group.normalize(group.parse_word("x0 x1 X2 x0 X1"))
    gi = group.invert(g)
    assert group.multiply(g, gi) == group.IDENTITY
    assert group.multiply(gi, g) == group.IDENTITY
    assert group.invert(group.IDENTITY) == group.IDENTITY


def _random_word(rng, length):
    return tuple((rng.randrange(5), rng.choice((1, -1))) for _ in range(length))


def test_multiplication_agrees_with_free_reduction():
    rng = random.Random(8128)
    for _ in range(300):
        u = _random_word(rng, rng.randrange(0, 12))
        v = _random_word(rng, rng.randrange(0, 12))
        lhs = group.multiply(group.normalize(u), group.normalize(v))
        rhs = group.normalize(u + v)
        assert lhs == rhs
        assert oracles.is_normal(lhs)


def test_inverse_of_random_words():
    rng = random.Random(2357)
    for _ in range(200):
        u = _random_word(rng, rng.randrange(0, 14))
        g = group.normalize(u)
        reversed_u = tuple((i, -s) for i, s in reversed(u))
        assert group.multiply(g, group.normalize(reversed_u)) == group.IDENTITY


@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=9))
@settings(max_examples=120, deadline=None)
def test_normal_form_round_trips_through_text(letters):
    g = group.normalize(tuple(letters))
    assert oracles.is_normal(g)
    assert group.parse_nf(group.format_nf(g)) == g


_wide_words = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 4), st.integers(250, 260)), st.sampled_from((1, -1))
    ),
    max_size=6,
)


@given(st.lists(_wide_words, max_size=40))
@example([[], [(1, 1)], [(1, -1)], [(1, 1), (2, -1)], [(1, 1), (2, 1)], [(2, -1)]])
@example([[(300, 1)], [(300, -1)], [(0, 1), (255, -1)], [(2, 1), (300, -1)]])
@settings(max_examples=150, deadline=None)
def test_compact_key_is_injective(words):
    # Without the length prefix, pos could end anywhere: x1 x2 and
    # x1 x2^-1 would both read b"\x01\x02", and x1 and x1^-1 b"\x01".
    elements = {group.normalize(tuple(w)) for w in words}
    assert len({group.compact_key(g) for g in elements}) == len(elements)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=7),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=7),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_multiplication_is_associative(a, b, c):
    ga, gb, gc = (group.normalize(tuple(w)) for w in (a, b, c))
    assert group.multiply(group.multiply(ga, gb), gc) == group.multiply(
        ga, group.multiply(gb, gc)
    )


def test_word_xn_conjugation_formula():
    # x_n = x0^{-(n-1)} x1 x0^{n-1}
    for n in range(1, 7):
        assert group.xn(n) == group.normalize(((n, 1),))


def test_presentation_checks_all_pass():
    checks = group.presentation_checks(mixed_max=3)
    failed = [name for name, ok in checks if not ok]
    assert failed == []
    names = [name for name, _ in checks]
    assert "sigma(relator 1) = e" in names
    assert any("beta^(alpha^3)" in n for n in names)


def test_injected_wrong_relator_fails():
    # x1^(x0^2) = x1^(x0) is false; the checker must notice.
    x0, x1 = group.X0, group.X1
    assert group.conjugate(x1, group.power(x0, 2)) != group.conjugate(x1, x0)


def test_sigma_involution_and_action():
    x0, x1 = group.X0, group.X1
    assert group.sigma(group.sigma(x0)) == x0
    assert group.sigma(group.sigma(x1)) == x1
    assert group.sigma(x0) == group.invert(x0)
    assert group.sigma(x1) == group.X1BAR
    rng = random.Random(99)
    for _ in range(60):
        u = group.normalize(_random_word(rng, rng.randrange(0, 10)))
        v = group.normalize(_random_word(rng, rng.randrange(0, 10)))
        assert group.sigma(group.multiply(u, v)) == group.multiply(
            group.sigma(u), group.sigma(v)
        )
        assert group.sigma(group.sigma(u)) == u


def test_sigma_swaps_symmetric_generators():
    alpha, beta = group.ALPHA, group.BETA
    # sigma exchanges x1^-1 and (x1 x0^-1)^-1 = x0 x1^-1.
    assert group.sigma(alpha) == beta
    assert group.sigma(beta) == alpha


def test_ball_sphere_sizes_standard():
    genset = group.GenSetSpec.standard()
    spheres = Counter(oracles.ball(genset, 4).values())
    assert [spheres[r] for r in range(5)] == [1, 4, 12, 36, 108]


def test_ball_cap_refusal():
    with pytest.raises(CapExceeded):
        oracles.ball(group.GenSetSpec.standard(), 4, cap=10)


def test_ball_distances_are_geodesic():
    genset = group.GenSetSpec.standard()
    b = oracles.ball(genset, 3)
    signed = [s for _, s in genset.signed()]
    for g, d in b.items():
        if d == 0:
            assert g == group.IDENTITY
            continue
        # Some neighbour sits one step closer.
        assert any(
            b.get(group.multiply(g, s), 99) == d - 1 for s in signed
        ), group.format_nf(g)


def test_genset_specs():
    std = group.GenSetSpec.standard()
    sym = group.GenSetSpec.symmetric()
    ext = group.GenSetSpec.extended()
    assert std.m == 2 and sym.m == 2 and ext.m == 3
    assert [lbl for lbl, _ in ext.gens] == ["x0", "x1", "x1bar"]
    assert len(ext.signed()) == 6
    assert all(isinstance(g, group.NormalForm) for _, g in ext.signed())
    custom = group.by_name("custom:x0,x1 x1")
    assert custom.m == 2
    with pytest.raises(ValueError):
        group.GenSetSpec.custom(["e"])
    with pytest.raises(ValueError):
        group.GenSetSpec.custom(["x0", "x0"])
    with pytest.raises(ValueError):
        group.by_name("nonsense")


def test_per_label_boundary_pairing_on_ball():
    genset = group.GenSetSpec.standard()
    elements = set(oracles.ball(genset, 3))
    counts = census.stats_elements(elements, genset).per_label_blocked()
    for lbl, _ in genset.gens:
        assert counts[lbl] == counts[lbl + "^-1"]


def test_commutes_helper():
    a = group.conjugate(group.ALPHA, group.BETA)
    b = group.conjugate(group.BETA, group.ALPHA)
    assert group.commutes(a, b)
    assert not group.commutes(group.X0, group.X1)


def _fold_letters(a, b):
    # The word route multiply took before it folded b's parts directly.
    return group._fold(list(a.pos), list(a.neg), group.letters(b))


_words_0_4 = st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=8)


@given(_words_0_4, _words_0_4)
@settings(max_examples=300, deadline=None)
def test_multiply_matches_letter_fold(u, v):
    a, b = group.normalize(tuple(u)), group.normalize(tuple(v))
    h = group.multiply(a, b)
    assert h == _fold_letters(a, b)
    assert oracles.is_normal(h)


def test_multiply_cases_that_need_reduction():
    # Junction cancellations (once in x1 . X1, twice in x0 x2 . X2 X0), and
    # a pair cancelled away from the junction, which shifts the higher
    # index down (x0 x3 . X0 = x2).
    cases = [("x1", "X1", "e"), ("x0 x2", "X2 X0", "e"), ("x0 x3", "X0", "x2")]
    for left, right, want in cases:
        a, b = group.parse_nf(left), group.parse_nf(right)
        h = group.multiply(a, b)
        assert h == _fold_letters(a, b) == group.parse_nf(want)
        assert oracles.is_normal(h)
