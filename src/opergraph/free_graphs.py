"""The two graded graphs on decorated trees: grafting (prefix) and its
twisted companion, with their closed-form hook statistics and duality map.

Up in the prefix graph grafts one corolla onto a leaf; its adjoint deletes a
maximal node.  The twisted adjoint contracts a quasi-maximal node (an
internal node reachable without first-child steps whose children beyond the
first are leaves); its adjoint inserts above first children only.

Trees over an alphabet are the free operad ``operads.TreeUniverse``, which
carries these four maps; the builders in ``operads`` give a new graph per
call, and the alphabet-taking functions here are calls on that universe
(the star maps read its closed-form rows and build no graph).  The two hook
closed forms are products over the internal nodes of a tree.  The initial
path counts of both graphs come from integer recurrences on that universe
(``TreeUniverse.up_paths`` and ``v_paths``), which build no tree.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial, prod

from . import operads
from .alphabet import Alphabet
from .graded_graph import GradedGraph, GradedGraphPair
# theta_row_sums, the U path recurrence, lives with the graph builders in
# ``operads``; it is importable from here too
from .operads import OracleBoundError, TreeUniverse, theta_row_sums
from .poly import Combination
from .tree import SyntaxTree, _deletions, _subtrees, node_stats


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


# -- brute-force oracle -----------------------------------------------------------

def _ancestor_pairs(t: SyntaxTree, twisted: bool):
    internal = node_stats(t).internal_nodes
    pairs = []
    for u in internal:
        for v in internal:
            if u == v:
                continue
            if twisted:
                # u before v when v sits past a non-first child of u,
                # or u sits inside the first subtree of v
                if (len(v) > len(u) and v[:len(u)] == u and v[len(u)] >= 2) or \
                   (len(u) > len(v) and u[:len(v)] == v and u[len(v)] == 1):
                    pairs.append((u, v))
            else:
                if len(v) > len(u) and v[:len(u)] == u:
                    pairs.append((u, v))
    return internal, pairs


def linear_extensions(t: SyntaxTree, twisted: bool = False, *, bound: int = 8,
                      return_words: bool = False):
    """Count linear extensions of the (twisted) order on internal nodes by
    filtering all permutations; the independent oracle for the hook formulas."""
    if t.degree > bound:
        raise OracleBoundError(f"degree {t.degree} exceeds the oracle bound {bound}")
    internal, pairs = _ancestor_pairs(t, twisted)
    words = []
    count = 0
    for perm in permutations(internal):
        position = {u: k for k, u in enumerate(perm)}
        if all(position[u] < position[v] for u, v in pairs):
            count += 1
            if return_words:
                words.append(perm)
    return (count, words) if return_words else count


# -- graph builders ----------------------------------------------------------------

def prefix_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.prefix_graph(TreeUniverse(alphabet))


def twisted_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.twisted_graph(TreeUniverse(alphabet))


def prefix_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.prefix_pair(TreeUniverse(alphabet))


def self_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.self_pair(TreeUniverse(alphabet))
