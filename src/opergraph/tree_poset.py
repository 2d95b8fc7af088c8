"""The prefix order on decorated trees: lattice operations, intervals,
shadows and interval enumeration.

The order is "s below t when t grows out of s"; meets intersect trees from
the root, joins superimpose them (term unification) and exist exactly for
pairs with a common upper bound.  Interval structure is controlled by the
shadow, the nonplanar undecorated image of the difference forest.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

from .alphabet import Alphabet
from .series import Series2
from .tree import LEAF, SyntaxTree, enumerate_trees, is_prefix, node

Forest = tuple[SyntaxTree, ...]


class NotComparableError(ValueError):
    """The two trees are not related in the prefix order."""


def poset_leq(s: SyntaxTree, t: SyntaxTree) -> bool:
    return is_prefix(s, t)


def meet(t: SyntaxTree, t2: SyntaxTree) -> SyntaxTree:
    """Greatest common prefix (the largest common part from the roots)."""
    if t.is_leaf or t2.is_leaf or t.letter != t2.letter:
        return LEAF
    return node(t.letter, (meet(a, b) for a, b in zip(t.children, t2.children)))


def join(t: SyntaxTree, t2: SyntaxTree) -> SyntaxTree | None:
    """Least upper bound (unification); None when the roots clash anywhere."""
    if t.is_leaf:
        return t2
    if t2.is_leaf:
        return t
    if t.letter != t2.letter:
        return None
    kids = []
    for a, b in zip(t.children, t2.children):
        j = join(a, b)
        if j is None:
            return None
        kids.append(j)
    return node(t.letter, kids)


def difference_forest(s: SyntaxTree, t: SyntaxTree) -> Forest:
    """The unique forest r with t = s composed with r; requires s <= t."""
    if s.is_leaf:
        return (t,)
    if t.is_leaf or s.letter != t.letter:
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    out: list[SyntaxTree] = []
    for a, b in zip(s.children, t.children):
        out.extend(difference_forest(a, b))
    return tuple(out)


def render_forest(forest: Forest) -> str:
    return ";".join(t.term for t in forest)


def parse_forest(text: str, alphabet: Alphabet) -> Forest:
    from .tree import parse_term
    return tuple(parse_term(chunk, alphabet) for chunk in text.split(";"))


# -- shadows ---------------------------------------------------------------------

class Shadow:
    """Finite multiset of shadows; canonical form sorts children by their
    own serialization, so equality is multiset equality."""

    __slots__ = ("children", "serial")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda s: s.serial))
        self.children = kids
        self.serial = "{" + ",".join(c.serial for c in kids) + "}"

    def __eq__(self, other):
        return isinstance(other, Shadow) and self.serial == other.serial

    def __hash__(self):
        return hash(self.serial)

    def __str__(self):
        return self.serial

    def __repr__(self):
        return f"<shadow {self.serial}>"


EMPTY_SHADOW = Shadow()


def shadow(t: SyntaxTree) -> Shadow:
    """Forget planarity, decorations and leaves; keeps only the nesting of
    internal nodes below the root."""
    if t.is_leaf:
        raise ValueError("the leaf has no shadow")
    return Shadow(shadow(c) for c in t.children if not c.is_leaf)


def load(s: Shadow) -> int:
    """Product over children of (1 + load); sizes the ideals of the shadow."""
    out = 1
    for c in s.children:
        out *= 1 + load(c)
    return out


# -- intervals ----------------------------------------------------------------------

def prefixes(t: SyntaxTree) -> list[SyntaxTree]:
    """All prefixes of t, sorted canonically."""
    out = _prefixes(t)
    return sorted(out, key=lambda r: (r.degree, r.term))


@lru_cache(maxsize=None)
def _prefixes(t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    if t.is_leaf:
        return (LEAF,)
    acc = [LEAF]
    for kids in product(*[_prefixes(c) for c in t.children]):
        acc.append(node(t.letter, kids))
    return tuple(acc)


def interval_shadow(s: SyntaxTree, t: SyntaxTree) -> Shadow:
    if not poset_leq(s, t):
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    return Shadow(shadow(r) for r in difference_forest(s, t) if not r.is_leaf)


def interval_count(s: SyntaxTree, t: SyntaxTree) -> int:
    return load(interval_shadow(s, t))


def interval_elements(s: SyntaxTree, t: SyntaxTree) -> list[SyntaxTree]:
    """Every r with s <= r <= t, sorted canonically."""
    out = _interval(s, t)
    if not out:
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    return sorted(out, key=lambda r: (r.degree, r.term))


def _interval(s: SyntaxTree, t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    """[s, t] unsorted, in one walk over both trees; empty when s is not below t."""
    if s.is_leaf:
        return _prefixes(t)
    if t.is_leaf or s.letter != t.letter:
        return ()
    return tuple(node(s.letter, kids) for kids in product(*map(_interval, s.children, t.children)))


def interval(s: SyntaxTree, t: SyntaxTree, mode: str = "count"):
    if mode == "count":
        return interval_count(s, t)
    if mode == "elements":
        return interval_elements(s, t)
    raise ValueError(f"unknown mode {mode!r}")


def interval_isomorphic(s: SyntaxTree, t: SyntaxTree,
                        s2: SyntaxTree, t2: SyntaxTree) -> bool:
    """Two intervals are order-isomorphic exactly when their difference
    shadows agree."""
    return interval_shadow(s, t) == interval_shadow(s2, t2)


# -- enumeration -----------------------------------------------------------------------

def is_stringy(t: SyntaxTree) -> bool:
    """At most one internal child under every internal node."""
    if t.is_leaf:
        return True
    big = [c for c in t.children if not c.is_leaf]
    return len(big) <= 1 and all(is_stringy(c) for c in big)


def stringy_count(alphabet: Alphabet, d: int) -> int:
    """Number of stringy trees of degree d (the co-irreducible elements):
    (#letters) * (sum of arities)^(d-1).

    The closed form starts at d = 1; d = 0 returns 1 for the leaf by
    convention (the leaf covers nothing, hence is also co-irreducible).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return 1
    count = len(alphabet)
    arity_sum = sum(letter.arity for letter in alphabet)
    return count * arity_sum ** (d - 1)


def interval_series(alphabet: Alphabet, t_trunc: int) -> Series2:
    """Bivariate interval counts: q marks the degree of the lower bound,
    t the degree of the upper bound.

    Solves F = 1 + t*R(G) + q*t*R(F) with G = F - q*t*R(F), where R is the
    alphabet's counting polynomial.  The two split into G = 1 + t*R(G) (the
    plain tree count) and F = G + q*t*R(F), so the t^n rows of F and G need
    only rows below n.  F, G and their powers up to the largest arity grow
    one t-degree at a time, each row a dense list of ints indexed by q-degree.
    """
    weights: dict[int, int] = {}
    for letter in alphabet:
        weights[letter.arity] = weights.get(letter.arity, 0) + 1
    top = max(weights, default=1)
    f_pows: list[list[list[int]]] = [[] for _ in range(top)]
    g_pows: list[list[list[int]]] = [[] for _ in range(top)]
    f_row = g_row = [1]
    for n in range(t_trunc + 1):
        if n:
            # G's rows are q-free (one entry), so adding q*R(F) appends
            g_row = _weighted_row(g_pows, weights, n - 1)
            f_row = g_row + _weighted_row(f_pows, weights, n - 1)
        _extend_powers(f_pows, f_row)
        _extend_powers(g_pows, g_row)
    return Series2({(i, n): c for n, row in enumerate(f_pows[0])
                    for i, c in enumerate(row)}, t_trunc)


def _extend_powers(pows: list[list[list[int]]], row: list[int]) -> None:
    """Append the next t-row of S to ``pows[0]`` (S itself) and the matching
    row of each S^k = S * S^(k-1) to ``pows[k-1]``, one convolution each."""
    base = pows[0]
    base.append(row)
    n = len(base) - 1
    for prev, cur in zip(pows, pows[1:]):
        out = [0] * (max(len(base[j]) + len(prev[n - j]) for j in range(n + 1)) - 1)
        for j in range(n + 1):
            other = prev[n - j]
            for i, x in enumerate(base[j]):
                if x:
                    for k, y in enumerate(other, i):
                        out[k] += x * y
        cur.append(out)


def _weighted_row(pows: list[list[list[int]]], weights: dict[int, int], n: int) -> list[int]:
    """The t^n row of R(S) = sum over arities k of weights[k] * S^k."""
    out = [0] * max((len(pows[k - 1][n]) for k in weights), default=0)
    for k, w in weights.items():
        for i, c in enumerate(pows[k - 1][n]):
            out[i] += w * c
    return out


def interval_count_brute(alphabet: Alphabet, lower_degree: int, upper_degree: int) -> int:
    """Directly count comparable pairs (s, t) with the given degrees."""
    total = 0
    for t in enumerate_trees(alphabet, upper_degree):
        for s in enumerate_trees(alphabet, lower_degree):
            if is_prefix(s, t):
                total += 1
    return total
