"""Planar rooted trees decorated by an alphabet.

Trees are immutable and hash-consed: ``node`` interns each tree by its root
letter and its tuple of (already interned) children, so structurally equal
live trees are one object, equality and hashing are identity, and a node
costs one tuple hash over its children.  The textual canonical form (``*``
for the leaf, ``name[child,...]`` for internal nodes) is the print form and
the sole ordering witness; it is rendered on first use and cached on the
node.  Each node also caches its deletions and contractions (the two star
maps).  The intern table holds each tree weakly: a tree that no caller holds
is freed, with those caches, and its entry leaves the table: the module's
one cache.  The free operad these trees form is ``operads.TreeUniverse``,
which holds its own degree slices, grown by ``_next_tree_slice``.

Public ``node`` copies its children and checks them against the letter's
arity.  Internal walks whose children always fit (the parser, rebuilds
along a spine, the star maps, enumeration, composition and the lattice
operations) build through ``_node`` and, for a whole batch over one letter,
``_nodes``, which intern without that check; ``_enter`` is the one place a
tree is made and entered in its table.

Walks over every internal node use ``_subtrees``, and edits at one address
rebuild the path above it with ``_rebuild``.  Like the parser, the renderer,
``nf`` and ``node_stats``, they keep an explicit stack, so that depth is no
limit.  The prefix-order walks and ``compose_forest`` still recurse once
per level.

Node addresses are tuples of positive integers; the empty tuple is the root.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product

from .alphabet import Alphabet, Letter

Address = tuple[int, ...]


class ParseError(ValueError):
    """Syntax error in a term, with the 0-based offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AddressError(ValueError):
    """An address that does not point where the operation requires."""


class SyntaxTree:
    """Either the leaf or a letter with exactly ``letter.arity`` subtrees.

    Build trees with ``node``: interning is what makes identity the
    equality.  The class has no constructor of its own; ``_enter`` makes
    every internal node, and ``LEAF`` is made once, below.
    """

    __slots__ = ("letter", "children", "degree", "arity", "is_leaf", "_term",
                 "_deletions", "_contractions", "__weakref__")

    @property
    def term(self) -> str:
        """The canonical text: ``*``, or ``name[child,...]``."""
        term = self._term
        if term is None:
            term = self._term = _render(self)
        return term

    def __lt__(self, other: "SyntaxTree"):
        return self.term < other.term

    def __str__(self) -> str:
        return self.term

    def __repr__(self) -> str:
        return f"<tree {self.term}>"


def _render(t: SyntaxTree) -> str:
    """The term of t, built with an explicit stack so that depth is no limit.
    Subtrees whose term is already cached are copied, not walked."""
    kids = t.children
    terms = [c._term for c in kids]
    if None not in terms:
        return f"{t.letter.name}[{','.join(terms)}]"
    parts = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
        elif item._term is not None:
            parts.append(item._term)
        else:
            parts.append(item.letter.name + "[")
            stack.append("]")
            kids = item.children
            for i in range(len(kids) - 1, 0, -1):
                stack.append(kids[i])
                stack.append(",")
            stack.append(kids[0])
    return "".join(parts)


class _Ref(weakref.ref):
    """An intern table's weak hold on a tree, with the tree's key."""

    __slots__ = ("key",)


class _Table(dict):
    """One letter's intern table: children tuple -> ``_Ref`` to the tree.
    A tree's death drops its entry, unless a new tree has taken the key in
    the meantime (the collector may run the callback late)."""

    __slots__ = ("drop",)

    def __init__(self):
        # one callback for the whole table: a bound method would be a new
        # object held by every reference
        def drop(ref):
            if self.get(ref.key) is ref:
                del self[ref.key]
        self.drop = drop


class _Tables(dict):
    """The intern tables by letter name; a name's table is made on first
    use."""

    __slots__ = ()

    def __missing__(self, name: str) -> _Table:
        table = self[name] = _Table()
        return table


_INTERN: dict[str, _Table] = _Tables()

_new = object.__new__

LEAF = _new(SyntaxTree)
LEAF.letter, LEAF.children, LEAF.is_leaf = None, (), True
LEAF.degree, LEAF.arity = 0, 1  # the only tree with no internal node
LEAF._term = "*"
LEAF._deletions = LEAF._contractions = ()


def _enter(table: _Table, letter: Letter, kids: tuple[SyntaxTree, ...]) -> SyntaxTree:
    """Make the tree with this letter over these children and enter it in
    the letter's table, held weakly under its key: the one place a tree is
    built."""
    degree, arity = 1, 0
    for c in kids:
        degree += c.degree
        arity += c.arity
    tree = _new(SyntaxTree)
    tree.letter = letter
    tree.children = kids
    tree.degree = degree
    tree.arity = arity
    tree.is_leaf = False
    tree._term = tree._deletions = tree._contractions = None
    ref = table[kids] = _Ref(tree, table.drop)
    ref.key = kids
    return tree


def _node(letter: Letter, kids: tuple[SyntaxTree, ...]) -> SyntaxTree:
    """The live tree with this letter over these children, built and
    entered when there is none.  Nothing checks that the children fit the
    letter's arity."""
    table = _INTERN[letter.name]
    ref = table.get(kids)
    tree = ref and ref()
    if tree is None:
        tree = _enter(table, letter, kids)
    return tree


def _nodes(letter: Letter, kid_tuples) -> list[SyntaxTree]:
    """``_node(letter, kids)`` for each tuple of children, in order, with
    one table lookup for the whole batch and no ``_node`` call per tuple
    (on ``poset`` queries this loop beats a comprehension over ``_node``)."""
    table = _INTERN[letter.name]
    get = table.get
    out = []
    for kids in kid_tuples:
        ref = get(kids)
        tree = ref and ref()
        if tree is None:
            tree = _enter(table, letter, kids)
        out.append(tree)
    return out


def node(letter: Letter, children) -> SyntaxTree:
    """The unique tree with this root letter and these children.  Walks
    whose children always fit the letter call ``_node``, which skips the
    arity check."""
    children = tuple(children)
    if len(children) != letter.arity:
        raise ValueError(
            f"letter {letter.name!r} has arity {letter.arity}, got {len(children)} children")
    return _node(letter, children)


def corolla(letter: Letter) -> SyntaxTree:
    return node(letter, (LEAF,) * letter.arity)


# -- text codec --------------------------------------------------------------

def parse_term(text: str, alphabet: Alphabet) -> SyntaxTree:
    """The tree a term denotes.  One loop over the text with an explicit
    stack of open nodes (letter, start offset, children so far), so a term
    of any depth parses.  Whitespace may stand before any term and before
    each ``[``, ``,`` and ``]``; errors are ``ParseError``s."""
    n = len(text)
    pos = 0
    stack: list[tuple[Letter, int, list[SyntaxTree]]] = []
    while True:
        # a term starts here: '*' or a letter name and its '['
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "*":
            pos += 1
            tree = LEAF
        else:
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            if not name:
                raise ParseError(f"expected '*' or a letter, found {text[pos]!r}", pos)
            letter = alphabet.get(name)
            if letter is None:
                raise ParseError(f"unknown letter {name!r}", start)
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n or text[pos] != "[":
                raise ParseError(f"expected '[' after letter {name!r}", pos)
            pos += 1
            stack.append((letter, start, []))
            continue
        # a term ended: hand it to its parent, closing every node that ends
        while stack:
            letter, start, children = stack[-1]
            children.append(tree)
            while pos < n and text[pos].isspace():
                pos += 1
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos >= n or text[pos] != "]":
                raise ParseError("expected ',' or ']'", pos)
            pos += 1
            if len(children) != letter.arity:
                raise ParseError(f"letter {letter.name!r} has arity {letter.arity}, "
                                 f"got {len(children)} children", start)
            stack.pop()
            tree = _node(letter, tuple(children))
        else:
            while pos < n and text[pos].isspace():
                pos += 1
            if pos != n:
                raise ParseError(f"trailing input {text[pos:]!r}", pos)
            return tree


# -- addresses ---------------------------------------------------------------

def format_address(u: Address) -> str:
    if not u:
        return "e"
    if all(i <= 9 for i in u):
        return "".join(str(i) for i in u)
    return ".".join(str(i) for i in u)


def subtree_at(t: SyntaxTree, u: Address) -> SyntaxTree:
    """The suffix subtree rooted at address u."""
    current = t
    for depth, i in enumerate(u):
        if current.is_leaf or not 1 <= i <= len(current.children):
            raise AddressError(
                f"address {format_address(u)} invalid in {t.term} "
                f"(no child {i} at {format_address(u[:depth])})")
        current = current.children[i - 1]
    return current


def _rebuild(spine, s: SyntaxTree) -> SyntaxTree:
    """Put s where the spine ends.  The spine lists (parent, child position)
    pairs from the root down; each parent is rebuilt around s, bottom up."""
    for parent, pos in reversed(spine):
        kids = parent.children
        s = _node(parent.letter, kids[:pos] + (s,) + kids[pos + 1:])
    return s


def _replace_at(t: SyntaxTree, u: Address, replacement: SyntaxTree) -> SyntaxTree:
    spine = []
    for i in u:
        spine.append((t, i - 1))
        t = t.children[i - 1]
    return _rebuild(spine, replacement)


def _subtrees(t: SyntaxTree):
    """The subtrees of t rooted at its internal nodes, t first, one per node.
    The walk keeps an explicit stack, so that depth is no limit."""
    stack = [t]
    while stack:
        sub = stack.pop()
        if sub.degree:
            yield sub
            stack.extend(sub.children)


# -- structural statistics ----------------------------------------------------

@dataclass(frozen=True)
class NodeStats:
    nodes: tuple[Address, ...]
    internal_nodes: tuple[Address, ...]
    leaves: tuple[Address, ...]
    maximal_nodes: tuple[Address, ...]
    quasi_maximal_nodes: tuple[Address, ...]
    non_first_leaves: tuple[Address, ...]


def node_stats(t: SyntaxTree) -> NodeStats:
    """All node classes of the tree, each sorted lexicographically.

    Leaves in this order carry the leaf indices 1..arity used by
    ``compose_index``.  A leaf or internal node is "non-first"/"quasi-maximal
    eligible" when its address avoids the integer 1 entirely.
    """
    nodes, internal, leaves = [], [], []
    maximal, quasi, non_first = [], [], []
    stack = [(t, (), False)]
    while stack:
        sub, addr, saw_first = stack.pop()
        nodes.append(addr)
        if sub.is_leaf:
            leaves.append(addr)
            if not saw_first:
                non_first.append(addr)
            continue
        internal.append(addr)
        if all(c.is_leaf for c in sub.children):
            maximal.append(addr)
        if not saw_first and all(c.is_leaf for c in sub.children[1:]):
            quasi.append(addr)
        for i, child in enumerate(sub.children, start=1):
            stack.append((child, addr + (i,), saw_first or i == 1))
    return NodeStats(tuple(sorted(nodes)), tuple(sorted(internal)), tuple(sorted(leaves)),
                     tuple(sorted(maximal)), tuple(sorted(quasi)), tuple(sorted(non_first)))


def nf(t: SyntaxTree) -> int:
    """Number of leaves whose address avoids the integer 1."""
    count, stack = 0, [t]
    while stack:
        sub = stack.pop()
        if sub.is_leaf:
            count += 1
        else:
            stack.extend(sub.children[1:])
    return count


# -- composition ---------------------------------------------------------------

def compose_index(t: SyntaxTree, i: int, s: SyntaxTree) -> SyntaxTree:
    """Graft the root of s onto the i-th leaf of t (leaves numbered 1..arity
    in lexicographic address order)."""
    if not 1 <= i <= t.arity:
        raise IndexError(f"leaf index {i} out of range 1..{t.arity} for {t.term}")
    spine = []
    while not t.is_leaf:
        for pos, child in enumerate(t.children):
            if i <= child.arity:
                break
            i -= child.arity
        spine.append((t, pos))
        t = child
    return _rebuild(spine, s)


def compose_address(t: SyntaxTree, u: Address, s: SyntaxTree) -> SyntaxTree:
    """Graft the root of s into the leaf at address u of t."""
    sub = subtree_at(t, u)
    if not sub.is_leaf:
        raise AddressError(f"{format_address(u)} is not a leaf of {t.term}")
    return _replace_at(t, u, s)


def compose_forest(t: SyntaxTree, forest) -> SyntaxTree:
    """Full composition: graft forest[i-1] onto the i-th leaf, for all i."""
    forest = tuple(forest)
    if len(forest) != t.arity:
        raise ValueError(f"need {t.arity} trees, got {len(forest)}")
    if t.is_leaf:
        return forest[0]
    out, start = [], 0
    for child in t.children:
        out.append(compose_forest(child, forest[start:start + child.arity]))
        start += child.arity
    return _node(t.letter, tuple(out))


# -- deletion and contraction ---------------------------------------------------

def delete_node(t: SyntaxTree, u: Address) -> SyntaxTree:
    """Replace the maximal internal node at u by a leaf."""
    sub = subtree_at(t, u)
    if sub.is_leaf or not all(c.is_leaf for c in sub.children):
        raise AddressError(f"{format_address(u)} is not a maximal internal node of {t.term}")
    return _replace_at(t, u, LEAF)


def contract_node(t: SyntaxTree, u: Address) -> SyntaxTree:
    """Remove the internal node at u, splicing its unique internal subtree
    (or a leaf, when the node is maximal) into its place.

    Defined whenever the node at u has at most one non-leaf child; on maximal
    nodes it coincides with ``delete_node``.
    """
    sub = subtree_at(t, u)
    if sub.is_leaf:
        raise AddressError(f"{format_address(u)} is not an internal node of {t.term}")
    big = [c for c in sub.children if not c.is_leaf]
    if len(big) > 1:
        raise AddressError(
            f"node {format_address(u)} of {t.term} has {len(big)} internal children; "
            "contraction needs at most one")
    return _replace_at(t, u, big[0] if big else LEAF)


def _deletions(t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    """Deletions of t at each of its maximal nodes (alphabet independent),
    cached on the node.  A node is maximal exactly when its degree is 1."""
    out = t._deletions
    if out is None:
        if t.degree == 1:
            out = (LEAF,)
        else:
            acc = []
            letter, kids = t.letter, t.children
            for i, child in enumerate(kids):
                if child.degree:
                    for d in _deletions(child):
                        acc.append(_node(letter, kids[:i] + (d,) + kids[i + 1:]))
            out = tuple(acc)
        t._deletions = out
    return out


def _contractions(t: SyntaxTree) -> tuple[SyntaxTree, ...]:
    """Contractions of t at each of its quasi-maximal nodes, cached on the node.

    Recursively: nothing on the leaf; the root itself when every child past
    the first is a leaf; otherwise contractions inside children 2..k.
    """
    out = t._contractions
    if out is None:
        letter, kids = t.letter, t.children
        if t.degree == 1 + kids[0].degree:  # children past the first are leaves
            out = (kids[0],)
        else:
            acc = []
            for j in range(1, len(kids)):
                if kids[j].degree:
                    for c in _contractions(kids[j]):
                        acc.append(_node(letter, kids[:j] + (c,) + kids[j + 1:]))
            out = tuple(acc)
        t._contractions = out
    return out


# -- enumeration and prefix order ------------------------------------------------

def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest
                 for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _next_tree_slice(alphabet: Alphabet, slices: list) -> list[SyntaxTree]:
    """The slice above ``slices`` (every slice from degree 0 up): each letter
    over each choice of children whose degrees add up to the top degree
    there, in canonical (term-lexicographic) order."""
    below = len(slices) - 1
    out = [t for letter in alphabet
           for split in _compositions(below, letter.arity)
           for t in _nodes(letter, product(*[slices[d] for d in split]))]
    out.sort(key=lambda t: t.term)
    return out


def enumerate_trees(alphabet: Alphabet, degree: int) -> list[SyntaxTree]:
    """All trees over the alphabet with the given number of internal nodes,
    in canonical order, built bottom-up in a list that goes with the call,
    so a deep slice costs no recursion."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    slices = [[LEAF]]
    while len(slices) <= degree:
        slices.append(_next_tree_slice(alphabet, slices))
    return slices[degree]


def is_prefix(s: SyntaxTree, t: SyntaxTree) -> bool:
    """True when t can be obtained from s by grafting a forest onto its leaves."""
    if s.is_leaf:
        return True
    if t.is_leaf or (s.letter is not t.letter and s.letter != t.letter):
        return False
    return all(is_prefix(a, b) for a, b in zip(s.children, t.children))
