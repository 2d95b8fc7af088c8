"""Graded operads and the pair of graded graphs every operad induces.

Each operad packages an element codec, composition, a degree, its minimal
generators, and the rows (dicts element -> weight) of its two maps,
``up_row`` and ``v_row``; it doubles as the universe object for combinations
and graded graphs over its elements.  Elements are plain ints (the chain),
syntax trees (the free operad on an alphabet, ``TreeUniverse``) or tuples of
small ints: ``WordOperad`` holds what the word operads (dias, comp, motz,
fcat:m) share, and each keeps only its own generators, shift, word
predicate, slices, twisted map and diagonal.

The graph builders at the end of this module are the only ones.  They take
any operad, the free ones included.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .alphabet import Alphabet, Letter
from .graded_graph import GradedGraph, GradedGraphPair
from .poly import Combination
from .tree import (LEAF, SyntaxTree, _contractions, _deletions, compose_index, corolla,
                   enumerate_trees, nf, node, parse_term)


class OracleBoundError(ValueError):
    """Input too large for a brute-force oracle."""


class NotDiagonalError(ValueError):
    """A commutator which is not a multiple of its argument."""

    def __init__(self, message, element, commutator):
        super().__init__(message)
        self.element = element
        self.commutator = commutator


def render_word(u: tuple[int, ...]) -> str:
    if all(a <= 9 for a in u):
        return "".join(str(a) for a in u)
    return ",".join(str(a) for a in u)


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
    # closed-form star rows; None derives them from reverse-edge tables
    up_star = None
    v_star = None

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
        x = int(text) if text.strip().isdigit() else None
        if not self.contains(x):
            raise ValueError(f"{text!r} is not an element of {self.name}")
        return x

    def v_explicit(self, x):
        return [x + 1]

    def phi(self, x):
        return 1


class WordOperad(Operad):
    """Operads on nonempty int words, of arity their length: composing y at i
    puts ``shift(x[i-1], y)`` in place of ``x[i-1]``; words pass ``is_word``."""

    unit = (0,)

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

    def phi(self, x):
        return self.m + 1


class TreeUniverse(Operad):
    """The free nonsymmetric operad on an alphabet: trees graded by degree,
    composed by grafting onto the i-th leaf, generated by the corollas in
    alphabet order.  Its slices come from ``tree.enumerate_trees`` (so the
    base slice cache is never built), and it adds both star rows in closed
    form."""

    unit = LEAF

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    @cached_property
    def name(self) -> str:
        return self.alphabet.render()

    @cached_property
    def generators(self) -> tuple[SyntaxTree, ...]:
        return tuple(corolla(letter) for letter in self.alphabet)

    def arity(self, t: SyntaxTree) -> int:
        return t.arity

    def degree(self, t: SyntaxTree) -> int:
        return t.degree

    def compose(self, t: SyntaxTree, i: int, s: SyntaxTree) -> SyntaxTree:
        return compose_index(t, i, s)

    def contains(self, t) -> bool:
        return isinstance(t, SyntaxTree) and (
            t.is_leaf or (t.letter in self.alphabet and all(map(self.contains, t.children))))

    def elements_of_rank(self, d: int) -> list[SyntaxTree]:
        return enumerate_trees(self.alphabet, d)

    def render_elem(self, t: SyntaxTree) -> str:
        return t.term

    def parse_elem(self, text: str) -> SyntaxTree:
        return parse_term(text, self.alphabet)

    def v_explicit(self, t: SyntaxTree) -> list[SyntaxTree]:
        """Successors in the twisted graph: a new root above t, or,
        recursively, one inside a child past the first."""
        out = [compose_index(g, 1, t) for g in self.generators]
        kids = t.children
        for j in range(1, len(kids)):
            for inner in self.v_explicit(kids[j]):
                out.append(node(t.letter, kids[:j] + (inner,) + kids[j + 1:]))
        return out

    def phi(self, t: SyntaxTree) -> int:
        """Diagonal coefficient making the prefix/twisted pair dual."""
        return len(self.alphabet) * nf(t)

    def up_star(self, t: SyntaxTree) -> dict:
        """Star row of grafting: delete each maximal node."""
        return dict.fromkeys(_deletions(t), 1)

    def v_star(self, t: SyntaxTree) -> dict:
        """Star row of the twisted map: contract each quasi-maximal node."""
        return dict.fromkeys(_contractions(t), 1)


_OPERADS = {"as": AsOperad, "dias": DiasOperad, "comp": CompOperad, "motz": MotzOperad}


@lru_cache(maxsize=None)
def get_operad(selector: str) -> Operad:
    """Selector strings: as | dias | comp | motz | fcat:<m>."""
    key = selector.strip().lower()
    if key in _OPERADS:
        return _OPERADS[key]()
    name, _, m = key.partition(":")
    if name == "fcat":
        try:
            return FCatOperad(int(m))
        except ValueError:
            raise ValueError(f"expected fcat:<m> with an integer m >= 0, got {selector!r}") from None
    raise ValueError(f"unknown operad selector {selector!r}")


# -- operations over any operad ---------------------------------------------------

def compose_operad(op: Operad, x, i: int, y):
    if not op.contains(x):
        raise ValueError(f"{op.render_elem(x)} is not an element of {op.name}")
    if not op.contains(y):
        raise ValueError(f"{op.render_elem(y)} is not an element of {op.name}")
    if not 1 <= i <= op.arity(x):
        raise IndexError(f"index {i} out of range 1..{op.arity(x)}")
    return op.compose(x, i, y)


def degree_operad(op: Operad, x) -> int:
    if not op.contains(x):
        raise ValueError(f"{op.render_elem(x)} is not an element of {op.name}")
    return op.degree(x)


# -- treelike expressions ------------------------------------------------------------

@lru_cache(maxsize=None)
def generator_alphabet(op: Operad):
    """A letter per generator (named g<word>), with the decoding map."""
    letters, mapping = [], {}
    for g in op.generators:
        name = "g" + op.render_elem(g).replace(",", "_")
        letter = Letter(name, op.arity(g))
        letters.append(letter)
        mapping[letter] = g
    return Alphabet(letters), mapping


def evaluate_tree(op: Operad, t: SyntaxTree):
    """The evaluation morphism: decode letters and compose down the tree."""
    _, mapping = generator_alphabet(op)

    def ev(sub: SyntaxTree):
        if sub.is_leaf:
            return op.unit
        x = mapping[sub.letter]
        for i in range(len(sub.children), 0, -1):
            x = op.compose(x, i, ev(sub.children[i - 1]))
        return x

    return ev(t)


def treelike_expressions(op: Operad, x, bound: int = 6) -> list[SyntaxTree]:
    """All trees over the generator alphabet evaluating to x."""
    d = op.degree(x)
    if d > bound:
        raise OracleBoundError(f"degree {d} exceeds the oracle bound {bound}")
    alphabet, _ = generator_alphabet(op)
    return [t for t in enumerate_trees(alphabet, d) if evaluate_tree(op, t) == x]


def v_operad_oracle(op: Operad, x, bound: int = 6) -> Combination:
    """Twisted successors through treelike expressions: evaluate the free
    twisted map on every expression of x and collect the images."""
    free = TreeUniverse(generator_alphabet(op)[0])
    seen = {evaluate_tree(op, t2)
            for t in treelike_expressions(op, x, bound) for t2 in free.v_explicit(t)}
    return Combination.characteristic(op, seen)


# -- duality -------------------------------------------------------------------------

def phi_operad(op: Operad, x, pair: str | None = None) -> int:
    """The diagonal duality coefficient for the operad's dual pair.

    Requesting the (U,V) pair of the one operad whose commutator is not
    diagonal raises NotDiagonalError carrying the witness.
    """
    pair = pair or op.phi_pair
    if pair not in ("uv", "uu"):
        raise ValueError(f"unknown pair {pair!r}")
    if pair == op.phi_pair:
        return op.phi(x)
    if op.name == "dias" and pair == "uv":
        witness = (1, 0)
        commutator = prefix_pair(op).duality_commutator(witness)
        raise NotDiagonalError(
            f"the (U,V) pair of dias is not diagonal: commutator at "
            f"{op.render_elem(witness)} is {commutator.render()}",
            witness, commutator)
    raise ValueError(f"no diagonal map known for {op.name} with pair {pair!r}")


# -- generators and order ---------------------------------------------------------------

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


def operad_poset_leq(op: Operad, x, y) -> bool:
    """x below y in the prefix order: some path of generator grafts leads
    from x to y (every edge weight is positive)."""
    return prefix_graph(op).path_weight_sum(x, y) > 0


# -- graph builders ------------------------------------------------------------------------

@lru_cache(maxsize=None)
def prefix_graph(op: Operad) -> GradedGraph:
    """Grafting graph of any operad, the free ones (``TreeUniverse``) included."""
    return GradedGraph(op, op.up_row, star=op.up_star, name=f"prefix({op.name})")


@lru_cache(maxsize=None)
def twisted_graph(op: Operad) -> GradedGraph:
    return GradedGraph(op, op.v_row, star=op.v_star, name=f"twisted({op.name})")


def prefix_pair(op: Operad) -> GradedGraphPair:
    return GradedGraphPair(prefix_graph(op), twisted_graph(op))


def self_pair(op: Operad) -> GradedGraphPair:
    g = prefix_graph(op)
    return GradedGraphPair(g, g)
