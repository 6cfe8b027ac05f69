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

Elements, generators and everything computed with them are normal forms.
Words, tuples of letters (index, sign), are only the text format: tokens
"x<i>" for x_i, "X<i>" for x_i^-1, and "e" for the empty word;
`parse_nf` and `format_nf` read and write an element through them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


# ---------------------------------------------------------------------------
# normal forms


class NormalForm(NamedTuple):
    """Reduced normal form; ``pos`` and ``neg`` are weakly increasing."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def is_identity(self) -> bool:
        return not self.pos and not self.neg

    def __str__(self) -> str:
        return format_nf(self)


IDENTITY = NormalForm((), ())


def compact_key(nf: NormalForm) -> bytes | NormalForm:
    """A hashable key that identifies nf among normal forms, small to store.

    bytes((len(pos), *pos, *neg)): the length prefix says where pos ends,
    so distinct normal forms give distinct keys.  bytes() refuses a value
    of 256 or more, and then nf itself is the key; a bytes key never
    equals a tuple, so the two kinds cannot collide either.
    """
    try:
        return bytes((len(nf.pos), *nf.pos, *nf.neg))
    except ValueError:
        return nf


def letters(nf: NormalForm) -> Word:
    """The normal form spelled as a word (positive part, then inverse part)."""
    return tuple((i, 1) for i in nf.pos) + tuple((j, -1) for j in reversed(nf.neg))


def format_nf(nf: NormalForm) -> str:
    return format_word(letters(nf))


def parse_nf(text: str) -> NormalForm:
    return normalize(parse_word(text))


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
        if s not in (1, -1):
            raise ValueError(f"letter sign {s} is not +-1")
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


# ---------------------------------------------------------------------------
# named elements, products and sigma


# The generators of the paper's sets: x1bar = x1 x0^-1, and the symmetric
# presentation's alpha = x1^-1, beta = x0 x1^-1.
X0 = parse_nf("x0")
X1 = parse_nf("x1")
X1BAR = parse_nf("x1 X0")
ALPHA = parse_nf("X1")
BETA = parse_nf("x0 X1")


def power(g: NormalForm, n: int) -> NormalForm:
    if n < 0:
        g, n = invert(g), -n
    out = IDENTITY
    for _ in range(n):
        out = multiply(out, g)
    return out


def conjugate(a: NormalForm, b: NormalForm) -> NormalForm:
    """a^b = b^-1 a b."""
    return multiply(multiply(invert(b), a), b)


def commutator(a: NormalForm, b: NormalForm) -> NormalForm:
    """[a, b] = a^-1 b^-1 a b."""
    return multiply(invert(multiply(b, a)), multiply(a, b))


def commutes(a: NormalForm, b: NormalForm) -> bool:
    return multiply(a, b) == multiply(b, a)


def xn(n: int) -> NormalForm:
    """x_n as a product over x_0, x_1 (for n >= 2: x_0^-(n-1) x_1 x_0^(n-1))."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    if n <= 1:
        return NormalForm((n,), ())
    return conjugate(X1, power(X0, n - 1))


def sigma(g: NormalForm) -> NormalForm:
    """The order-2 automorphism x0 -> x0^-1, x1 -> x1bar = x1 x0^-1, applied
    letter by letter: x_i -> x0^(i-1) x1bar x0^-(i-1) for i >= 1."""
    out = IDENTITY
    for i, s in letters(g):
        image = invert(X0) if i == 0 else conjugate(X1BAR, power(X0, 1 - i))
        out = multiply(out, image if s > 0 else invert(image))
    return out


# ---------------------------------------------------------------------------
# generating sets


@dataclass(frozen=True)
class GenSetSpec:
    """A finite generating set of elements, none trivial, pairwise distinct."""

    name: str
    gens: tuple[tuple[str, NormalForm], ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("generating set must be nonempty")
        seen: dict[NormalForm, str] = {}
        for label, g in self.gens:
            if g.is_identity():
                raise ValueError(f"generator {label!r} is the identity")
            if g in seen:
                raise ValueError(f"generators {seen[g]!r} and {label!r} coincide")
            seen[g] = label

    @property
    def m(self) -> int:
        return len(self.gens)

    def signed(self) -> tuple[tuple[str, NormalForm], ...]:
        """All 2m signed generators, inverses labelled with a ^-1 suffix."""
        return self.gens + tuple((label + "^-1", invert(g)) for label, g in self.gens)

    @staticmethod
    def standard() -> "GenSetSpec":
        return GenSetSpec("standard", (("x0", X0), ("x1", X1)))

    @staticmethod
    def symmetric() -> "GenSetSpec":
        return GenSetSpec("symmetric", (("x1", X1), ("x1bar", X1BAR)))

    @staticmethod
    def extended() -> "GenSetSpec":
        return GenSetSpec("extended", (("x0", X0), ("x1", X1), ("x1bar", X1BAR)))

    @staticmethod
    def custom(words: Iterable[str]) -> "GenSetSpec":
        gens = tuple((w, parse_nf(w)) for w in words)
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
# presentation checks


def _relators(x0: NormalForm, x1: NormalForm) -> list[tuple[NormalForm, NormalForm]]:
    """Both sides of the two defining relations of F, evaluated at x0, x1."""
    sq = power(x0, 2)
    return [
        (conjugate(x1, sq), conjugate(x1, multiply(x0, x1))),
        (conjugate(x1, multiply(sq, x0)), conjugate(x1, multiply(sq, x1))),
    ]


def presentation_checks(mixed_max: int = 3) -> list[tuple[str, bool]]:
    """Named identities that must hold in F; each paired with its truth.

    Covers: samples of the infinite family x_j x_i = x_i x_{j+1}; the two
    defining relations in x0, x1; the symmetric presentation in
    alpha = x1^-1, beta = x0 x1^-1 (both commutation relations, their
    restatement over x0, x1, and the mixed family alpha^(beta^m) <->
    beta^(alpha^n)); and the order-2 automorphism sigma.
    """
    a, b = ALPHA, BETA
    checks: list[tuple[str, bool]] = []

    for i in range(0, 4):
        for j in range(i + 1, 5):
            checks.append(
                (
                    f"x{j} x{i} = x{i} x{j + 1}",
                    multiply(xn(j), xn(i)) == multiply(xn(i), xn(j + 1)),
                )
            )

    (l1, r1), (l2, r2) = _relators(X0, X1)
    checks.append(("x1^(x0^2) = x1^(x0 x1)", l1 == r1))
    checks.append(("x1^(x0^3) = x1^(x0^2 x1)", l2 == r2))

    checks.append(("x0 = beta alpha^-1", X0 == multiply(b, invert(a))))
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

    # sigma kills both defining relators (their sides agree at the images
    # of x0, x1) and squares to the identity.
    for t, (lhs, rhs) in enumerate(_relators(sigma(X0), sigma(X1)), 1):
        checks.append((f"sigma(relator {t}) = e", lhs == rhs))
    for g, name in ((X0, "x0"), (X1, "x1")):
        checks.append((f"sigma(sigma({name})) = {name}", sigma(sigma(g)) == g))
    checks.append(("sigma([x0,x1]) != e", not sigma(commutator(X0, X1)).is_identity()))

    return checks
