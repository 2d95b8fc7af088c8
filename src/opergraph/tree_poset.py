"""The prefix order on decorated trees: lattice operations, intervals,
shadows and interval enumeration.

The order is "s below t when t grows out of s"; meets intersect trees from
the root, joins superimpose them (term unification) and exist exactly for
pairs with a common upper bound.  Interval structure is controlled by the
shadow, the nonplanar undecorated image of the difference forest: the
sorted tuple of its trees' shadows, so two shadows are equal exactly when
their shapes are.  An interval's size is a product of prefix counts, one
per tree of the difference forest; ``interval_count`` takes it in one walk
over both trees and builds no shadow, whose load stays its oracle.
"""
from __future__ import annotations

from itertools import product
from operator import attrgetter

from .alphabet import Alphabet
from .series import Series2
from .tree import LEAF, SyntaxTree, _node, _nodes, enumerate_trees, is_prefix

Forest = tuple[SyntaxTree, ...]

_degree = attrgetter("degree")


class NotComparableError(ValueError):
    """The two trees are not related in the prefix order."""


def poset_leq(s: SyntaxTree, t: SyntaxTree) -> bool:
    return is_prefix(s, t)


def meet(t: SyntaxTree, t2: SyntaxTree) -> SyntaxTree:
    """Greatest common prefix (the largest common part from the roots)."""
    if t.is_leaf or t2.is_leaf or (t.letter is not t2.letter and t.letter != t2.letter):
        return LEAF
    return _node(t.letter, tuple(map(meet, t.children, t2.children)))


def join(t: SyntaxTree, t2: SyntaxTree) -> SyntaxTree | None:
    """Least upper bound (unification); None when the roots clash anywhere."""
    if t.is_leaf:
        return t2
    if t2.is_leaf:
        return t
    if t.letter is not t2.letter and t.letter != t2.letter:
        return None
    kids = []
    for a, b in zip(t.children, t2.children):
        j = join(a, b)
        if j is None:
            return None
        kids.append(j)
    return _node(t.letter, tuple(kids))


def difference_forest(s: SyntaxTree, t: SyntaxTree) -> Forest:
    """The unique forest r with t = s composed with r; requires s <= t."""
    if s.is_leaf:
        return (t,)
    if t.is_leaf or (s.letter is not t.letter and s.letter != t.letter):
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    out: list[SyntaxTree] = []
    for a, b in zip(s.children, t.children):
        out.extend(difference_forest(a, b))
    return tuple(out)


# -- shadows ---------------------------------------------------------------------

def shadow(t: SyntaxTree) -> tuple:
    """Forget planarity, decorations and leaves; keeps only the nesting of
    internal nodes below the root, as the sorted tuple of the internal
    children's shadows."""
    if t.is_leaf:
        raise ValueError("the leaf has no shadow")
    return tuple(sorted(shadow(c) for c in t.children if not c.is_leaf))


def load(s: tuple) -> int:
    """Product over children of (1 + load); sizes the ideals of the shadow."""
    out = 1
    for c in s:
        out *= 1 + load(c)
    return out


# -- intervals ----------------------------------------------------------------------

def _prefixes(t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    """The prefixes of t in term order: the leaf, then t's letter over the
    product of the children's lists.  Terms are prefix-free and ``*`` sorts
    before every letter name, so the product's lexicographic order is term
    order, and a stable sort by degree alone gives the canonical order."""
    if t.is_leaf:
        return (LEAF,)
    return (LEAF, *_nodes(t.letter, product(*[_prefixes(c) for c in t.children])))


def interval_shadow(s: SyntaxTree, t: SyntaxTree) -> tuple:
    """The shadows of the difference forest, sorted.  Two intervals are
    order-isomorphic exactly when their interval shadows agree."""
    if not poset_leq(s, t):
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    return tuple(sorted(shadow(r) for r in difference_forest(s, t) if not r.is_leaf))


def interval_count(s: SyntaxTree, t: SyntaxTree) -> int:
    """The size of [s, t], equal to ``load(interval_shadow(s, t))`` but
    counted in one walk over both trees, with no shadow built."""
    count = _interval_count(s, t)
    if not count:
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    return count


def _interval_count(s: SyntaxTree, t: SyntaxTree) -> int:
    """|[s, t]|, or 0 when s is not below t: the product over the pairs of
    children, down to the places where s has a leaf and t its subtree r,
    which contribute the number of prefixes of r."""
    if s.is_leaf:
        return _prefix_count(t)
    if t.is_leaf or (s.letter is not t.letter and s.letter != t.letter):
        return 0
    count = 1
    for a, b in zip(s.children, t.children):
        count *= _interval_count(a, b)
    return count


def _prefix_count(t: SyntaxTree) -> int:
    """The number of prefixes of t: 1 for the leaf, otherwise the leaf plus
    t's letter over any choice of prefixes of its children."""
    if t.is_leaf:
        return 1
    count = 1
    for c in t.children:
        count *= _prefix_count(c)
    return count + 1


def interval_elements(s: SyntaxTree, t: SyntaxTree) -> list[SyntaxTree]:
    """Every r with s <= r <= t, sorted canonically (by degree, then term)."""
    out = _interval(s, t)
    if not out:
        raise NotComparableError(f"{s.term} is not a prefix of {t.term}")
    return sorted(out, key=_degree)


def _interval(s: SyntaxTree, t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    """[s, t] in term order, in one walk over both trees; empty when s is not
    below t.  As in ``_prefixes``, every element shares s's root letter, so
    the product over the children's intervals comes out in term order."""
    if s.is_leaf:
        return _prefixes(t)
    if t.is_leaf or (s.letter is not t.letter and s.letter != t.letter):
        return ()
    return tuple(_nodes(s.letter, product(*map(_interval, s.children, t.children))))


def interval(s: SyntaxTree, t: SyntaxTree, mode: str = "count"):
    if mode == "count":
        return interval_count(s, t)
    if mode == "elements":
        return interval_elements(s, t)
    raise ValueError(f"unknown mode {mode!r}")


# -- enumeration -----------------------------------------------------------------------

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


def interval_series(alphabet: Alphabet, order: int) -> Series2:
    """Bivariate interval counts to t^order: q marks the degree of the lower
    bound, t the degree of the upper bound.

    Solves F = 1 + t*R(G) + q*t*R(F) with G = F - q*t*R(F), where R is the
    alphabet's counting polynomial.  The two split into G = 1 + t*R(G) (the
    plain tree count) and F = G + q*t*R(F), so the t^n row of F needs only
    rows below n.  G is F at q = 0, so R(G)'s t-row is the q^0 entry of
    R(F)'s.  F and its powers up to the largest arity grow one t-degree at a
    time, each row a dense list of ints indexed by q-degree.
    """
    weights: dict[int, int] = {}
    for letter in alphabet:
        weights[letter.arity] = weights.get(letter.arity, 0) + 1
    top = max(weights, default=1)
    f_pows: list[list[list[int]]] = [[] for _ in range(top)]
    f_row = [1]
    for n in range(order + 1):
        if n:
            # G's row is R(F)'s q^0 entry; adding q*R(F) shifts R(F)'s row up
            row = _weighted_row(f_pows, weights, n - 1)
            f_row = row[:1] + row
        _extend_powers(f_pows, f_row)
    return Series2({(i, n): c for n, row in enumerate(f_pows[0])
                    for i, c in enumerate(row)})


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
    lower = enumerate_trees(alphabet, lower_degree)
    return sum(is_prefix(s, t) for t in enumerate_trees(alphabet, upper_degree) for s in lower)
