"""The two graded graphs on decorated trees: grafting (prefix) and its
twisted companion, with their closed-form hook statistics and duality map.

Up in the prefix graph grafts one corolla onto a leaf; its adjoint deletes a
maximal node.  The twisted adjoint contracts a quasi-maximal node (an
internal node reachable without first-child steps whose children beyond the
first are leaves); its adjoint inserts above first children only.

Trees over an alphabet are the free operad ``operads.TreeUniverse``, which
carries these four maps and the path recurrences.  This module holds the
closed forms the CLI prints (``hook_closed_form`` and ``twisted_hook``,
products over the internal nodes of a tree, and ``phi_self_singleton``),
the ``theta_row_sums`` re-export, and calls on that universe that take an
alphabet: ``phi_free``, the star maps (its closed-form rows, no graph
built) and the graph builders.  The brute-force linear-extension oracle for
the two hooks is in ``tests/oracles.py``.
"""
from __future__ import annotations

from math import factorial, prod

from . import operads
from .alphabet import Alphabet
from .graded_graph import GradedGraph, GradedGraphPair
# theta_row_sums, the U path recurrence, lives with the graph builders in
# ``operads``; it is importable from here too
from .operads import TreeUniverse, theta_row_sums
from .poly import Combination
from .tree import SyntaxTree, _deletions, _subtrees


# -- the star maps ----------------------------------------------------------------

def up_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    universe = TreeUniverse(alphabet)
    return Combination(universe, universe.up_star(t))


def v_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    universe = TreeUniverse(alphabet)
    return Combination(universe, universe.v_star(t))


# -- hook statistics ------------------------------------------------------------

def multinomial(parts) -> int:
    """Number of shuffles of blocks of the given sizes."""
    parts = list(parts)
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def hook_closed_form(t: SyntaxTree) -> int:
    """deg(t)! divided by the product of the degrees of all internal-node
    subtrees; counts the linear extensions of the ancestor order of t."""
    return factorial(t.degree) // prod(sub.degree for sub in _subtrees(t))


def twisted_hook(t: SyntaxTree) -> int:
    """Linear extensions of the twisted ancestor order: the shuffle factor
    skips the first child."""
    return prod(multinomial(c.degree for c in sub.children[1:]) for sub in _subtrees(t))


def phi_free(t: SyntaxTree, alphabet: Alphabet) -> int:
    """Diagonal coefficient making the prefix/twisted pair dual."""
    return TreeUniverse(alphabet).phi(t)


def phi_self_singleton(t: SyntaxTree, alphabet: Alphabet) -> int:
    """Self-duality coefficient arity(t) - #maximal(t); only singleton
    alphabets admit a diagonal self-commutator."""
    if len(alphabet) != 1:
        raise ValueError(
            f"self-duality is diagonal only for singleton alphabets, got {alphabet.render()}")
    return t.arity - len(_deletions(t))  # one deletion per maximal node


# -- graph builders ----------------------------------------------------------------

def prefix_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.prefix_graph(TreeUniverse(alphabet))


def twisted_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.twisted_graph(TreeUniverse(alphabet))


def prefix_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.prefix_pair(TreeUniverse(alphabet))
