"""Graded operads and the pair of graded graphs every operad induces.

Each operad packages an element codec, composition, a degree, its minimal
generators, and the rows (dicts element -> weight) of its two maps,
``up_row`` and ``v_row``; it doubles as the universe object for combinations
and graded graphs over its elements.  Elements are plain ints (the chain),
syntax trees (the free operad on an alphabet, ``TreeUniverse``, which also
holds the trees' hooks ``hook_u``/``hook_v`` and ``phi_self``) or tuples of
small ints: ``WordOperad`` holds what the word operads (dias, comp, motz,
fcat:m) share, and each keeps only its own generators, shift, word
predicate, slices, twisted map and diagonal.  ``generator_alphabet`` names
each generator as a letter, for the treelike-expression oracles.

``Operad.up_row`` makes one ``compose`` per (generator, position) pair and
stays the oracle; the chain and the word operads give their up rows
directly (a word splices shifted generators in place of each letter).  Star
rows are (element, weight) pairs, in closed form where cheap: the trees
both.  The twisted graphs of the chain, comp and fcat:m are trees, and those
operads give a parent map (``v_parent``: x - 1, or a word's prefix) in place
of a star map; the graph derives the star row from it, and the duality
check reads one parent per U edge.  Elsewhere the graph reads a reverse-edge
table, and ``up_adjoint`` reads it for every graph: the oracle for every
closed form and parent map.  The duality check walks the up rows one rank
at a time; comp and fcat:m give that rank stream in closed form
(``up_rows``: a word's up row is its prefix's row, each word extended by
the last letter, plus the splices at that letter), so a passing check
builds no degree slice and computes each up row once.  The stream comes
prefix by prefix, out of canonical order once a letter reaches 10, and on a
failure the check walks that rank again in canonical order.  The other
operads and the trees walk their slices, and ``GradedGraph._slice_rows`` is
the stream's oracle.

Each graph also takes its initial path counts from an integer recurrence
where one exists, and builds no element for them.  ``up_paths`` is
``theta_row_sums`` over the generators' arities, for every operad, trees
included: a U step out of x grafts each generator at each position, so its
weight is ``len(generators) * arity(x)`` and it adds ``arity(g) - 1`` to the
arity.  It keeps one arity row, path counts by arity at the current degree,
and pushes it forward a degree at a time.  ``TreeUniverse.v_paths`` is the
twisted recurrence over the root letter; the other operads have none, and
their V graphs sum hook slices (``GradedGraph.hook_trace``), which is the
oracle for both recurrences.

``hook_trace`` reads the weight sum of an up row, in closed form.
``up_outdegree(x)`` is ``len(generators) * arity(x)``.  ``v_outdegree(x)``
is ``len(v_explicit(x))``; the trees count the places where ``v_explicit``
puts a new root, and build no tree.  The row sums are the tests' oracle.

The graph builders at the end of this module are the only ones.  They take
any operad, the free ones included, and build a new graph on every call:
its reverse-edge table is the caller's, and goes with the graph.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb, factorial, prod

from .alphabet import Alphabet, Letter
from .graded_graph import GradedGraph, GradedGraphPair
from .poly import Combination
from .tree import (LEAF, SyntaxTree, _contractions, _deletions, _rebuild, _subtrees,
                   compose_index, corolla, enumerate_trees, nf, parse_term)


class OracleBoundError(ValueError):
    """Input too large for a brute-force oracle."""


# the largest degree the treelike-expression oracles enumerate trees to
ORACLE_BOUND = 6


_DIGITS = dict(enumerate("0123456789"))


def render_word(u: tuple[int, ...]) -> str:
    """Letters 0-9 written as digits side by side, else every letter
    comma-separated.  The sort key of every word-operad slice."""
    try:
        return "".join(map(_DIGITS.__getitem__, u))
    except KeyError:  # a letter of 10 or more
        return ",".join(map(str, u))


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return tuple(int(a) for a in (text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"expected a word such as 0110 or 0,12,1, got {text!r}") from None


class Operad:
    """Shared machinery; subclasses fill in the combinatorial substance."""

    name = "operad"
    unit = None
    generators: tuple = ()
    phi_pair = "uv"
    # closed-form star rows of (element, weight) pairs; None reads a table
    up_star = None
    v_star = None
    # the one twisted predecessor, of weight 1, where the twisted graph is a
    # tree (None at the unit); it stands in for v_star
    v_parent = None
    # the twisted path counts by recurrence; None sums the hook slices
    v_paths = None
    # the up rows of a rank from those of the rank below; None walks the slice
    up_rows = None

    def __init__(self):
        self._degree_slices: list[list] = [[self.unit]]

    # -- per-operad substance ------------------------------------------------

    def arity(self, x) -> int:
        raise NotImplementedError

    def degree(self, x) -> int:
        raise NotImplementedError

    def compose(self, x, i: int, y):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def elements_of_arity(self, n: int) -> list:
        raise NotImplementedError

    def v_explicit(self, x) -> list:
        """Successor list of the twisted map, from the closed form."""
        raise NotImplementedError

    def phi(self, x) -> int:
        """Diagonal duality coefficient for this operad's dual pair."""
        raise NotImplementedError

    # -- the rows of the two maps ------------------------------------------

    def up_row(self, x) -> dict:
        """Graft each generator at each position, with multiplicity the number
        of (generator, position) pairs producing the same element."""
        row: dict = {}
        for g in self.generators:
            for i in range(1, self.arity(x) + 1):
                y = self.compose(x, i, g)
                row[y] = row.get(y, 0) + 1
        return row

    def v_row(self, x) -> dict:
        """The twisted successors of x, each with its multiplicity."""
        row: dict = {}
        for y in self.v_explicit(x):
            row[y] = row.get(y, 0) + 1
        return row

    def up_outdegree(self, x) -> int:
        """Weight sum of the up row: each generator at each position."""
        return len(self.generators) * self.arity(x)

    def v_outdegree(self, x) -> int:
        """Weight sum of the twisted row."""
        return len(self.v_explicit(x))

    def up_paths(self, d: int) -> list[int]:
        """Initial path counts of the grafting graph to rank d.  A U path lifts
        to one free path over ``generator_alphabet``, and the weights of both
        depend only on the arities, so the counts are the free ones."""
        return theta_row_sums(self.generator_alphabet[0], d)

    @cached_property
    def generator_alphabet(self) -> tuple[Alphabet, dict]:
        """A letter per generator (named g<word>), with the decoding map."""
        mapping = {Letter("g" + self.render_elem(g).replace(",", "_"), self.arity(g)): g
                   for g in self.generators}
        return Alphabet(mapping), mapping

    # -- codec ----------------------------------------------------------------

    def render_elem(self, x) -> str:
        return render_word(x)

    def parse_elem(self, text: str):
        x = parse_word(text)
        if not self.contains(x):
            raise ValueError(f"{text!r} is not an element of {self.name}")
        return x

    # -- universe protocol ------------------------------------------------------

    def sort_key(self, x):
        return (self.degree(x), self.render_elem(x))

    def elements_of_rank(self, d: int) -> list:
        """Degree slice, the union of the up rows of the slice below
        (complete because every element is built from generators)."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        while len(self._degree_slices) <= d:
            grown = set()
            for x in self._degree_slices[-1]:
                grown.update(self.up_row(x))
            self._degree_slices.append(sorted(grown, key=self.sort_key))
        return self._degree_slices[d]

    def __eq__(self, other):
        return type(other) is type(self) and self.name == other.name

    def __hash__(self):
        return hash((type(self), self.name))

    def __repr__(self):
        return f"<operad {self.name}>"


class AsOperad(Operad):
    """The chain: one element per arity, composition adds arities."""

    name = "as"
    unit = 1
    generators = (2,)

    def arity(self, x):
        return x

    def degree(self, x):
        return x - 1

    def compose(self, x, i, y):
        return x + y - 1

    def contains(self, x):
        return isinstance(x, int) and x >= 1

    def elements_of_arity(self, n):
        return [n]

    def render_elem(self, x):
        return str(x)

    def parse_elem(self, text):
        try:
            if self.contains(x := int(text)):
                return x
        except ValueError:
            pass
        raise ValueError(f"{text!r} is not an element of {self.name}")

    def v_explicit(self, x):
        return [x + 1]

    def phi(self, x):
        return 1

    def up_row(self, x):
        """Grafting the one generator at any of the x positions gives x + 1."""
        return {x + 1: x}

    def v_parent(self, x):
        """Only x - 1 steps up to x, once."""
        return x - 1 if x > 1 else None


class WordOperad(Operad):
    """Operads on nonempty int words, of arity their length: composing y at i
    puts ``shift(x[i-1], y)`` in place of ``x[i-1]``; words pass ``is_word``."""

    unit = (0,)

    def __init__(self):
        super().__init__()
        self._shifted: dict[int, list[tuple[int, ...]]] = {}

    def shift(self, pivot: int, y: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def is_word(self, x: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def arity(self, x):
        return len(x)

    def degree(self, x):
        return len(x) - 1

    def compose(self, x, i, y):
        return x[:i - 1] + self.shift(x[i - 1], y) + x[i:]

    def contains(self, x):
        return isinstance(x, tuple) and len(x) >= 1 and self.is_word(x)

    def _shift_generators(self, pivot: int) -> list[tuple[int, ...]]:
        """Every generator shifted by ``pivot``, kept in ``_shifted``."""
        gens = self._shifted[pivot] = [self.shift(pivot, g) for g in self.generators]
        return gens

    def up_row(self, x):
        """``Operad.up_row`` without ``compose``: at each position, splice
        every generator shifted by the letter it replaces between the head
        and the tail, each taken once.  The shifted generators are cached
        per letter value."""
        row: dict = {}
        shifted = self._shifted
        for i, pivot in enumerate(x):
            gens = shifted.get(pivot) or self._shift_generators(pivot)
            head, tail = x[:i], x[i + 1:]
            for g in gens:
                y = head + g + tail
                row[y] = row.get(y, 0) + 1
        return row


def _words(n: int, nexts) -> list[tuple[int, ...]]:
    """Words of length n from 0 on, each next letter drawn from ``nexts(last
    letter, letters left after it)``; ascending ``nexts`` keep them sorted."""
    words = [(0,)] if n >= 1 else []
    for k in range(1, n):
        words = [w + (a,) for w in words for a in nexts(w[-1], n - k - 1)]
    return words


class DiasOperad(WordOperad):
    """Binary words with exactly one 0; substitution lifts the inserted word
    by the replaced letter."""

    name = "dias"
    generators = ((0, 1), (1, 0))
    phi_pair = "uu"

    def shift(self, pivot, y):
        return tuple([max(pivot, a) for a in y])

    def is_word(self, x):
        return all(a in (0, 1) for a in x) and x.count(0) == 1

    def elements_of_arity(self, n):
        return [(1,) * k + (0,) + (1,) * (n - 1 - k) for k in range(n)]

    def v_explicit(self, x):
        return [x + (1,), (1,) * len(x) + (0,)]

    def phi(self, x):
        k = x.index(0)
        ell = len(x) - 1 - k
        return (1 if k == 0 else 8 * k) + (1 if ell == 0 else 8 * ell)


class CompOperad(WordOperad):
    """Binary words starting with 0; substitution complements the inserted
    word under a 1."""

    name = "comp"
    generators = ((0, 0), (0, 1))

    def shift(self, pivot, y):
        return y if pivot == 0 else tuple([1 - a for a in y])

    def is_word(self, x):
        return x[0] == 0 and all(a in (0, 1) for a in x)

    def elements_of_arity(self, n):
        return _words(n, lambda a, rest: (0, 1))

    def v_explicit(self, x):
        return [x + (0,), x + (1,)]

    def v_parent(self, y):
        """A word of length >= 2 comes only from its own prefix, once."""
        return y[:-1] if len(y) > 1 else None

    def up_rows(self, rank, below):
        """(x, up row of x) for each word x of the rank, given ``below``, the
        up row of each word of rank - 1.  The words whose prefix is p are
        ``v_explicit(p)``, as for ``v_parent``.  A splice before the last
        letter a leaves a in place, so x's row is p's row with a appended
        to each word, plus the splices of the generators shifted by a at
        the last position.  The words come prefix by prefix, which is not
        canonical order once a letter reaches 10."""
        if rank == 0:
            yield self.unit, self.up_row(self.unit)
            return
        shifted = self._shifted
        for p, prow in below.items():
            for x in self.v_explicit(p):
                a = x[-1]
                end = x[-1:]
                row = {y + end: w for y, w in prow.items()}
                for g in shifted.get(a) or self._shift_generators(a):
                    y = p + g
                    row[y] = row.get(y, 0) + 1
                yield x, row

    def phi(self, x):
        return 2


class MotzOperad(WordOperad):
    """Nonnegative words from 0 to 0 with unit steps; substitution shifts the
    inserted word up by the replaced letter."""

    name = "motz"
    generators = ((0, 0), (0, 1, 0))

    def degree(self, x):
        ascents = sum(1 for a, b in zip(x, x[1:]) if b == a + 1)
        return len(x) - 1 - ascents

    def shift(self, pivot, y):
        return tuple([a + pivot for a in y])

    def is_word(self, x):
        return (x[0] == 0 and x[-1] == 0 and all(a >= 0 for a in x)
                and all(abs(b - a) <= 1 for a, b in zip(x, x[1:])))

    def elements_of_arity(self, n):
        # a letter above the number still to come could not step back to 0
        return _words(n, lambda a, rest: [b for b in (a - 1, a, a + 1) if 0 <= b <= rest])

    def v_explicit(self, x):
        out = []
        n = len(x)
        for i in range(1, n + 1):
            if i == n or x[i - 1] > x[i]:
                a = x[i - 1]
                out.append(x[:i] + (a,) + x[i:])
                out.append(x[:i] + (a + 1, a) + x[i:])
        return out

    def phi(self, x):
        return 2 + sum(1 for a, b in zip(x, x[1:]) if a != b)


class FCatOperad(WordOperad):
    """Nonnegative words with 0 first and ascents bounded by m; substitution
    shifts the inserted word up by the replaced letter."""

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("m must be >= 0")
        self.m = m
        self.name = f"fcat:{m}"
        self.generators = tuple((0, a) for a in range(m + 1))
        super().__init__()

    def shift(self, pivot, y):
        return tuple([a + pivot for a in y])

    def is_word(self, x):
        return (x[0] == 0 and all(a >= 0 for a in x)
                and all(b <= a + self.m for a, b in zip(x, x[1:])))

    def elements_of_arity(self, n):
        return _words(n, lambda a, rest: range(a + self.m + 1))

    def v_explicit(self, x):
        return [x + (a,) for a in range(x[-1] + self.m + 1)]

    v_parent = CompOperad.v_parent
    up_rows = CompOperad.up_rows

    def phi(self, x):
        return self.m + 1


class TreeUniverse(Operad):
    """The free nonsymmetric operad on an alphabet: trees graded by degree,
    composed by grafting onto the i-th leaf, generated by the corollas in
    alphabet order (its own generator alphabet).  Its slices come from
    ``tree.enumerate_trees``, so the base slice cache is never built.  Star
    rows, twisted out-degree, hooks and ``phi_self`` are closed forms."""

    unit = LEAF

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    @cached_property
    def name(self) -> str:
        return self.alphabet.render()

    @cached_property
    def generators(self) -> tuple[SyntaxTree, ...]:
        return tuple(corolla(letter) for letter in self.alphabet)

    @cached_property
    def generator_alphabet(self) -> tuple[Alphabet, dict]:
        """The alphabet itself, each letter decoding to its corolla."""
        return self.alphabet, dict(zip(self.alphabet, self.generators))

    def arity(self, t: SyntaxTree) -> int:
        return t.arity

    def degree(self, t: SyntaxTree) -> int:
        return t.degree

    def compose(self, t: SyntaxTree, i: int, s: SyntaxTree) -> SyntaxTree:
        return compose_index(t, i, s)

    def contains(self, t) -> bool:
        return isinstance(t, SyntaxTree) and all(
            sub.letter in self.alphabet for sub in _subtrees(t))

    def elements_of_rank(self, d: int) -> list[SyntaxTree]:
        return enumerate_trees(self.alphabet, d)

    def render_elem(self, t: SyntaxTree) -> str:
        return t.term

    def parse_elem(self, text: str) -> SyntaxTree:
        return parse_term(text, self.alphabet)

    def v_explicit(self, t: SyntaxTree) -> list[SyntaxTree]:
        """Successors in the twisted graph: a new root above t or above any
        subtree reached from the root through children past the first."""
        out = []
        stack = [(t, ())]
        while stack:
            sub, spine = stack.pop()
            out.extend(_rebuild(spine, compose_index(g, 1, sub)) for g in self.generators)
            kids = sub.children
            for j in range(len(kids) - 1, 0, -1):
                stack.append((kids[j], spine + ((sub, j),)))
        return out

    def v_outdegree(self, t: SyntaxTree) -> int:
        """``len(v_explicit(t))``: a new root for each letter above each node,
        leaves included, reached from the root through children past the
        first.  The walk keeps an explicit stack and builds no tree."""
        count = 0
        stack = [t]
        while stack:
            count += 1
            stack.extend(stack.pop().children[1:])
        return len(self.alphabet) * count

    def phi(self, t: SyntaxTree) -> int:
        """Diagonal coefficient making the prefix/twisted pair dual."""
        return len(self.alphabet) * nf(t)

    def phi_self(self, t: SyntaxTree) -> int:
        """Self-duality coefficient arity(t) - #maximal(t); only singleton
        alphabets admit a diagonal self-commutator."""
        if len(self.alphabet) != 1:
            raise ValueError(
                f"self-duality is diagonal only for singleton alphabets, got {self.name}")
        return t.arity - len(_deletions(t))  # one deletion per maximal node

    def hook_u(self, t: SyntaxTree) -> int:
        """deg(t)! divided by the product of the degrees of all internal-node
        subtrees; counts the linear extensions of the ancestor order of t."""
        return factorial(t.degree) // prod(sub.degree for sub in _subtrees(t))

    def hook_v(self, t: SyntaxTree) -> int:
        """Linear extensions of the twisted ancestor order: at each internal
        node, the shuffles of the subtrees past the first child, one binomial
        per child as their degree sum runs up."""
        out = 1
        for sub in _subtrees(t):
            total = 0
            for child in sub.children[1:]:
                total += child.degree
                out *= comb(total, child.degree)
        return out

    def up_paths(self, d: int) -> list[int]:
        """``Operad.up_paths`` on the alphabet itself, so no corolla is built."""
        return theta_row_sums(self.alphabet, d)

    def v_paths(self, d: int) -> list[int]:
        """Initial path counts of the twisted graph to degree d.

        A tree's twisted hook is the product of its root's subtree hooks and
        the shuffles of the subtrees past the first.  So with O[n] the count
        at degree n, and P_k[m] the sum over k subtrees of total degree m of
        their hooks times their shuffles,
        O[n] = sum over letters a and d1 + m = n - 1 of O[d1] * P_{|a|-1}[m],
        P_k[m] = sum over j of C(m, j) * O[j] * P_{k-1}[m - j],
        with P_0 = [1, 0, 0, ...]: integers and binomials only.
        """
        arities = Counter(letter.arity for letter in self.alphabet)
        counts = [1]
        shuffles = [[1] + [0] * d] + [[] for _ in range(max(arities, default=1) - 1)]
        for n in range(1, d + 1):
            m = n - 1
            for below, row in zip(shuffles, shuffles[1:]):
                row.append(sum(comb(m, j) * counts[j] * below[m - j] for j in range(n)))
            counts.append(sum(
                times * sum(counts[d1] * shuffles[arity - 1][m - d1] for d1 in range(n))
                for arity, times in arities.items()))
        return counts

    def up_star(self, t: SyntaxTree):
        """Star row of grafting: delete each maximal node."""
        return zip(_deletions(t), repeat(1))

    def v_star(self, t: SyntaxTree):
        """Star row of the twisted map: contract each quasi-maximal node."""
        return zip(_contractions(t), repeat(1))


_OPERADS = {"as": AsOperad, "dias": DiasOperad, "comp": CompOperad, "motz": MotzOperad}
# fcat:m builds its m + 1 generators, and the rows over them, at once: one up
# step from the unit took 17 MB at m = 10^3 and 616 MB at m = 10^6
FCAT_MAX_M = 10_000


@lru_cache(maxsize=None)
def get_operad(selector: str) -> Operad:
    """Selector strings: as | dias | comp | motz | fcat:<m>; one operad per normal form."""
    key = selector.strip().lower()
    name, _, m = key.partition(":")
    if name == "fcat":
        try:
            m = int(m)
        except ValueError:
            m = -1
        if m < 0:
            raise ValueError(f"expected fcat:<m> with an integer m >= 0, got {selector!r}")
        if m > FCAT_MAX_M:
            raise ValueError(f"fcat:<m> takes m up to {FCAT_MAX_M}, got {selector!r}")
        key = f"fcat:{m}"
    elif key not in _OPERADS:
        raise ValueError(f"unknown operad selector {selector!r}")
    if key != selector:
        return get_operad(key)
    return FCatOperad(m) if name == "fcat" else _OPERADS[key]()


# -- treelike expressions ------------------------------------------------------------

def evaluate_tree(op: Operad, t: SyntaxTree):
    """The evaluation morphism: decode letters and compose down the tree.

    A preorder walk with an explicit stack, so depth is no limit.  The
    leaves met so far are the first inputs of the composite, so the node
    visited next fills input ``leaves + 1`` with its generator."""
    _, mapping = op.generator_alphabet
    x, leaves, stack = op.unit, 0, [t]
    while stack:
        sub = stack.pop()
        if sub.is_leaf:
            leaves += 1
        else:
            x = op.compose(x, leaves + 1, mapping[sub.letter])
            stack.extend(reversed(sub.children))
    return x


def treelike_expressions(op: Operad, x) -> list[SyntaxTree]:
    """All trees over the generator alphabet evaluating to x."""
    d = op.degree(x)
    if d > ORACLE_BOUND:
        raise OracleBoundError(f"degree {d} exceeds the oracle bound {ORACLE_BOUND}")
    alphabet, _ = op.generator_alphabet
    return [t for t in enumerate_trees(alphabet, d) if evaluate_tree(op, t) == x]


def v_operad_oracle(op: Operad, x) -> Combination:
    """Twisted successors through treelike expressions: evaluate the free
    twisted map on every expression of x and collect the images."""
    free = TreeUniverse(op.generator_alphabet[0])
    seen = {evaluate_tree(op, t2)
            for t in treelike_expressions(op, x) for t2 in free.v_explicit(t)}
    return Combination(op, dict.fromkeys(seen, 1))


# -- generators -----------------------------------------------------------------------

def minimal_generators(op: Operad, arity_max: int) -> list:
    """The unique minimal generating set up to the given arity: strip out,
    arity by arity, everything reachable from lower-arity generators."""
    gens: list = []
    span_by_arity: dict[int, set] = {1: {op.unit}}
    for n in range(2, arity_max + 1):
        reachable = set()
        for g in gens:
            ag = op.arity(g)
            p = n - ag + 1
            for x in span_by_arity.get(p, ()):
                for i in range(1, p + 1):
                    reachable.add(op.compose(x, i, g))
        new = [x for x in op.elements_of_arity(n) if x not in reachable]
        gens.extend(new)
        span_by_arity[n] = reachable | set(new)
    return sorted(gens, key=op.sort_key)


# -- path enumeration by arity --------------------------------------------------------------

def theta_row_sums(alphabet: Alphabet, d_max: int) -> list[int]:
    """Initial path counts to the trees of each degree 0..d_max.

    theta(d, n) counts the initial paths to trees of degree d and arity n,
    from theta(0, 1) = 1.  One arity row is kept and pushed forward: a
    graft of letter a at one of the n leaves goes from arity n to
    n - 1 + |a|.  Only the letters' arities are read, so the letters of one
    arity are taken together.
    """
    arities = Counter(letter.arity for letter in alphabet).items()
    row = {1: 1}
    sums = [1]
    for _ in range(d_max):
        nxt: dict[int, int] = {}
        for n, c in row.items():
            for arity, times in arities:
                m = n - 1 + arity
                nxt[m] = nxt.get(m, 0) + times * n * c
        row = nxt
        sums.append(sum(row.values()))
    return sums


# -- graph builders ------------------------------------------------------------------------

def prefix_graph(op: Operad) -> GradedGraph:
    """Grafting graph of any operad, the free ones (``TreeUniverse``) included."""
    return GradedGraph(op, op.up_row, star=op.up_star, outdegree=op.up_outdegree,
                       paths=op.up_paths, rows=op.up_rows, name=f"prefix({op.name})")


def twisted_graph(op: Operad) -> GradedGraph:
    return GradedGraph(op, op.v_row, star=op.v_star, outdegree=op.v_outdegree,
                       paths=op.v_paths, parent=op.v_parent, name=f"twisted({op.name})")


def prefix_pair(op: Operad) -> GradedGraphPair:
    return GradedGraphPair(prefix_graph(op), twisted_graph(op))


def self_pair(op: Operad) -> GradedGraphPair:
    g = prefix_graph(op)
    return GradedGraphPair(g, g)
