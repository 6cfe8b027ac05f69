"""Exact arithmetic in Thompson's group F via reduced normal forms.

F is given by the infinite presentation

    < x_0, x_1, x_2, ... | x_j x_i = x_i x_{j+1}  (i < j) >

and is generated by x_0, x_1 since x_n = x_0^-(n-1) x_1 x_0^(n-1) for n >= 2.
Every element has a unique reduced normal form

    x_{i_1} ... x_{i_s} . x_{j_t}^-1 ... x_{j_1}^-1

with i_1 <= ... <= i_s and j_1 <= ... <= j_t, subject to: whenever x_i and
x_i^-1 both occur, x_{i+1} or x_{i+1}^-1 also occurs (in particular
i_s != j_t).  We store the two index lists; `neg` is kept in increasing
order, so the written inverse part is `neg` reversed.  A `NormalForm` is
the tuple (pos, neg): it compares, orders and hashes as that tuple.

Words are tuples of letters (index, sign).  Textual format: tokens "x<i>"
for x_i, "X<i>" for x_i^-1, and "e" for the empty word.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import CapExceeded

Letter = tuple[int, int]
Word = tuple[Letter, ...]

_TOKEN_RE = re.compile(r"([xX])(\d+)")


# ---------------------------------------------------------------------------
# words


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x0 X1 x2"`` (or ``"e"``)."""
    if not text.split():
        raise ValueError("empty word; the identity is spelled 'e'")
    letters: list[Letter] = []
    for pos, tok in enumerate(text.split()):
        if tok == "e":
            continue
        m = _TOKEN_RE.fullmatch(tok)
        if m is None:
            raise ValueError(f"bad generator token {tok!r} at position {pos}")
        letters.append((int(m.group(2)), 1 if m.group(1) == "x" else -1))
    return tuple(letters)


def format_word(word: Word) -> str:
    if not word:
        return "e"
    return " ".join(("x" if s > 0 else "X") + str(i) for i, s in word)


def inverse_word(word: Word) -> Word:
    return tuple((i, -s) for i, s in reversed(word))


def concat(*words: Word) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def power(word: Word, n: int) -> Word:
    if n < 0:
        return power(inverse_word(word), -n)
    return word * n


def conjugate(a: Word, b: Word) -> Word:
    """a^b = b^-1 a b."""
    return concat(inverse_word(b), a, b)


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b."""
    return concat(inverse_word(a), inverse_word(b), a, b)


def word_xn(n: int) -> Word:
    """x_n as a word over x_0, x_1 (for n >= 2: x_0^-(n-1) x_1 x_0^(n-1))."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    if n <= 1:
        return ((n, 1),)
    return concat(power(((0, -1),), n - 1), ((1, 1),), power(((0, 1),), n - 1))


W_X0: Word = ((0, 1),)
W_X1: Word = ((1, 1),)
W_X1BAR: Word = ((1, 1), (0, -1))          # x1 x0^-1
W_ALPHA: Word = ((1, -1),)                 # x1^-1
W_BETA: Word = ((0, 1), (1, -1))           # x0 x1^-1


# ---------------------------------------------------------------------------
# normal forms


class NormalForm(NamedTuple):
    """Reduced normal form; ``pos`` and ``neg`` are weakly increasing."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return multiply(self, other)

    def inverse(self) -> "NormalForm":
        return invert(self)

    def is_identity(self) -> bool:
        return not self.pos and not self.neg

    def __str__(self) -> str:
        return format_nf(self)


IDENTITY = NormalForm((), ())


def letters(nf: NormalForm) -> Word:
    """The normal form spelled as a word (positive part, then inverse part)."""
    return tuple((i, 1) for i in nf.pos) + tuple((j, -1) for j in reversed(nf.neg))


def format_nf(nf: NormalForm) -> str:
    return format_word(letters(nf))


def parse_nf(text: str) -> NormalForm:
    return normalize(parse_word(text))


def is_normal(nf: NormalForm) -> bool:
    """Check every normal-form condition (used as a test oracle)."""
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


def _append_pos(p: list[int], q: list[int], c: int) -> None:
    # Pass x_c leftward through the inverse part.  q is ascending, i.e.
    # written right-to-left, so q[0] is the rightmost inverse letter.
    # Rules: x_j^-1 x_c = x_{c+1} x_j^-1 (j < c); cancellation (j == c);
    # x_j^-1 x_c = x_c x_{j+1}^-1 (j > c).
    m = 0
    while m < len(q):
        j = q[m]
        if j < c:
            c += 1
            m += 1
        elif j == c:
            del q[m]
            return
        else:
            break
    for t in range(m, len(q)):
        q[t] += 1
    # Insert into the positive part; larger positive letters are passed via
    # x_b x_c = x_c x_{b+1} (c < b).
    at = bisect_right(p, c)
    for t in range(at, len(p)):
        p[t] += 1
    p.insert(at, c)


def _append_neg(q: list[int], c: int) -> None:
    # Pass x_c^-1 leftward through smaller inverse letters:
    # x_j^-1 x_c^-1 = x_{c+1}^-1 x_j^-1 (j < c).
    m = 0
    while m < len(q) and q[m] < c:
        c += 1
        m += 1
    q.insert(m, c)


def _reduce(p: list[int], q: list[int]) -> None:
    # Enforce the two reduction conditions on a seminormal pair of lists:
    # cancel equal innermost letters at the junction, and whenever x_i,
    # x_i^-1 both occur with no x_{i+1}^{+-1} present, cancel the pair.
    # The latter uses x_i x_m x_i^-1 = x_{m-1} (m >= i + 2): every index
    # above i shifts down by one.  Without a junction match or a shared
    # index neither rule applies.
    if not (p and q and p[-1] == q[-1]) and set(p).isdisjoint(q):
        return
    changed = True
    while changed:
        changed = False
        while p and q and p[-1] == q[-1]:
            p.pop()
            q.pop()
            changed = True
        ps, qs = set(p), set(q)
        present = ps | qs
        for i in sorted(ps & qs):
            if i + 1 in present:
                continue
            p.remove(i)
            q.remove(i)
            for t in range(len(p)):
                if p[t] > i:
                    p[t] -= 1
            for t in range(len(q)):
                if q[t] > i:
                    q[t] -= 1
            changed = True
            break


def _fold(p: list[int], q: list[int], word: Iterable[Letter]) -> NormalForm:
    for i, s in word:
        if i < 0:
            raise ValueError(f"negative generator index {i}")
        if s > 0:
            _append_pos(p, q, i)
        else:
            _append_neg(q, i)
    _reduce(p, q)
    return NormalForm(tuple(p), tuple(q))


def normalize(word: Iterable[Letter]) -> NormalForm:
    """Reduced normal form of an arbitrary word in the x_i."""
    return _fold([], [], word)


def multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    # b's letters are valid by construction, so fold its two parts directly:
    # the positive part in order, then the inverse part written left to right.
    p, q = list(a.pos), list(a.neg)
    for c in b.pos:
        _append_pos(p, q, c)
    for c in reversed(b.neg):
        _append_neg(q, c)
    _reduce(p, q)
    # tuple.__new__ skips the Python-level NamedTuple constructor.
    return tuple.__new__(NormalForm, (tuple(p), tuple(q)))


def invert(a: NormalForm) -> NormalForm:
    # (P N^-1)^-1 = N P^-1: the two index lists swap; reducedness is
    # symmetric in the parts, so no rewriting is needed.
    return NormalForm(a.neg, a.pos)


def verify_relation(lhs: Word, rhs: Word) -> bool:
    """Do two words represent the same element of F?"""
    return normalize(lhs) == normalize(rhs)


def commutes(a, b) -> bool:
    """Whether two elements (words or normal forms) commute."""
    wa = letters(a) if isinstance(a, NormalForm) else tuple(a)
    wb = letters(b) if isinstance(b, NormalForm) else tuple(b)
    return verify_relation(concat(wa, wb), concat(wb, wa))


# ---------------------------------------------------------------------------
# endomorphisms


SIGMA_IMAGES: dict[int, Word] = {0: ((0, -1),), 1: W_X1BAR}


def apply_endomorphism(images: dict[int, Word], g: NormalForm) -> NormalForm:
    """Apply the endomorphism determined by images of x_0 and x_1.

    Letters x_n with n >= 2 are sent through x_n = x_0^-(n-1) x_1 x_0^(n-1).
    """
    if 0 not in images or 1 not in images:
        raise ValueError("images must be defined for x0 and x1")
    image: list[Letter] = []
    for i, s in letters(g):
        if i in images:
            w = images[i]
        else:
            w = concat(
                power(inverse_word(images[0]), i - 1),
                images[1],
                power(images[0], i - 1),
            )
        image.extend(w if s > 0 else inverse_word(w))
    return normalize(image)


def sigma(g: NormalForm) -> NormalForm:
    """The order-2 automorphism x0 -> x0^-1, x1 -> x1 x0^-1."""
    return apply_endomorphism(SIGMA_IMAGES, g)


# ---------------------------------------------------------------------------
# generating sets


@dataclass(frozen=True)
class GenSetSpec:
    """A finite generating set: named words, none trivial, pairwise distinct."""

    name: str
    gens: tuple[tuple[str, Word], ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("generating set must be nonempty")
        seen: dict[NormalForm, str] = {}
        for label, word in self.gens:
            nf = normalize(word)
            if nf.is_identity():
                raise ValueError(f"generator {label!r} is the identity")
            if nf in seen:
                raise ValueError(f"generators {seen[nf]!r} and {label!r} coincide")
            seen[nf] = label

    @property
    def m(self) -> int:
        return len(self.gens)

    def signed(self) -> tuple[tuple[str, Word], ...]:
        """All 2m signed generators, inverses labelled with a ^-1 suffix."""
        out = list(self.gens)
        out.extend((label + "^-1", inverse_word(w)) for label, w in self.gens)
        return tuple(out)

    @staticmethod
    def standard() -> "GenSetSpec":
        return GenSetSpec("standard", (("x0", W_X0), ("x1", W_X1)))

    @staticmethod
    def symmetric() -> "GenSetSpec":
        return GenSetSpec("symmetric", (("x1", W_X1), ("x1bar", W_X1BAR)))

    @staticmethod
    def extended() -> "GenSetSpec":
        return GenSetSpec(
            "extended", (("x0", W_X0), ("x1", W_X1), ("x1bar", W_X1BAR))
        )

    @staticmethod
    def custom(words: Iterable[str]) -> "GenSetSpec":
        gens = tuple((w, parse_word(w)) for w in words)
        return GenSetSpec("custom", gens)


def by_name(name: str) -> GenSetSpec:
    if name.startswith("custom:"):
        return GenSetSpec.custom(name[len("custom:"):].split(","))
    try:
        return {
            "standard": GenSetSpec.standard,
            "symmetric": GenSetSpec.symmetric,
            "extended": GenSetSpec.extended,
        }[name]()
    except KeyError:
        raise ValueError(f"unknown generating set {name!r}") from None


# ---------------------------------------------------------------------------
# balls and boundaries in the element model


def ball(genset: GenSetSpec, radius: int, cap: int = 10**7) -> dict[NormalForm, int]:
    """All elements within word-length `radius`, mapped to their distance."""
    steps = [normalize(w) for _, w in genset.signed()]
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


def sphere_sizes(genset: GenSetSpec, radius: int, cap: int = 10**7) -> list[int]:
    """Count of elements at each distance 0..radius."""
    dist = ball(genset, radius, cap)
    counts = [0] * (radius + 1)
    for r in dist.values():
        counts[r] += 1
    return counts


# ---------------------------------------------------------------------------
# presentation checks


def presentation_checks(mixed_max: int = 3) -> list[tuple[str, bool]]:
    """Named word identities that must hold in F; each paired with its truth.

    Covers: samples of the infinite family x_j x_i = x_i x_{j+1}; the two
    defining relations in x0, x1; the symmetric presentation in
    alpha = x1^-1, beta = x0 x1^-1 (both commutation relations, their
    restatement over x0, x1, and the mixed family alpha^(beta^m) <->
    beta^(alpha^n)); and the order-2 automorphism sigma.
    """
    a, b = W_ALPHA, W_BETA
    checks: list[tuple[str, bool]] = []

    for i in range(0, 4):
        for j in range(i + 1, 5):
            checks.append(
                (
                    f"x{j} x{i} = x{i} x{j + 1}",
                    verify_relation(
                        concat(word_xn(j), word_xn(i)),
                        concat(word_xn(i), word_xn(j + 1)),
                    ),
                )
            )

    x0sq = power(W_X0, 2)
    x0cb = power(W_X0, 3)
    checks.append(
        (
            "x1^(x0^2) = x1^(x0 x1)",
            verify_relation(conjugate(W_X1, x0sq), conjugate(W_X1, concat(W_X0, W_X1))),
        )
    )
    checks.append(
        (
            "x1^(x0^3) = x1^(x0^2 x1)",
            verify_relation(conjugate(W_X1, x0cb), conjugate(W_X1, concat(x0sq, W_X1))),
        )
    )

    checks.append(("x0 = beta alpha^-1", verify_relation(W_X0, concat(b, inverse_word(a)))))
    checks.append(("alpha^beta <-> beta^alpha", commutes(conjugate(a, b), conjugate(b, a))))
    checks.append(
        ("alpha^beta <-> beta^(alpha^2)", commutes(conjugate(a, b), conjugate(b, power(a, 2))))
    )
    for mm in range(1, mixed_max + 1):
        for nn in range(1, mixed_max + 1):
            checks.append(
                (
                    f"alpha^(beta^{mm}) <-> beta^(alpha^{nn})",
                    commutes(conjugate(a, power(b, mm)), conjugate(b, power(a, nn))),
                )
            )

    # sigma kills both defining relators and squares to the identity.
    rel1 = concat(conjugate(W_X1, x0sq), inverse_word(conjugate(W_X1, concat(W_X0, W_X1))))
    rel2 = concat(conjugate(W_X1, x0cb), inverse_word(conjugate(W_X1, concat(x0sq, W_X1))))
    checks.append(("sigma(relator 1) = e", sigma(normalize(rel1)).is_identity()))
    checks.append(("sigma(relator 2) = e", sigma(normalize(rel2)).is_identity()))
    for g, name in ((normalize(W_X0), "x0"), (normalize(W_X1), "x1")):
        checks.append((f"sigma(sigma({name})) = {name}", sigma(sigma(g)) == g))
    comm = normalize(commutator(W_X0, W_X1))
    checks.append(("sigma([x0,x1]) != e", not sigma(comm).is_identity()))

    return checks
