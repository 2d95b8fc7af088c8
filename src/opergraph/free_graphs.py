"""The two graded graphs on decorated trees, grafting (prefix) and its
twisted companion, called with an alphabet.

Up in the prefix graph grafts one corolla onto a leaf; its adjoint deletes a
maximal node.  The twisted adjoint contracts a quasi-maximal node (an
internal node reachable without first-child steps whose children beyond the
first are leaves); its adjoint inserts above first children only.

Trees over an alphabet are the free operad ``operads.TreeUniverse``, which
carries these four maps, the path recurrences, the hooks (``hook_u``,
``hook_v``) and the duality coefficients (``phi``, ``phi_self``).  This module
is the alphabet-taking layer the benchmark reads by name: ``phi_free``, the
star maps (closed-form rows, no graph built), the graph builders and the
``theta_row_sums`` re-export; it goes once the benchmark reads the universe
(ROADMAP item 7).
"""
from __future__ import annotations

from . import operads
from .alphabet import Alphabet
from .graded_graph import GradedGraph, GradedGraphPair
# theta_row_sums, the U path recurrence, lives with the graph builders in
# ``operads``; it is importable from here too
from .operads import TreeUniverse, theta_row_sums
from .poly import Combination
from .tree import SyntaxTree


# -- the star maps and the duality coefficient ---------------------------------------

def up_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    universe = TreeUniverse(alphabet)
    return Combination(universe, universe.up_star(t))


def v_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    universe = TreeUniverse(alphabet)
    return Combination(universe, universe.v_star(t))


def phi_free(t: SyntaxTree, alphabet: Alphabet) -> int:
    """Diagonal coefficient making the prefix/twisted pair dual."""
    return TreeUniverse(alphabet).phi(t)


# -- graph builders ----------------------------------------------------------------

def prefix_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.prefix_graph(TreeUniverse(alphabet))


def twisted_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.twisted_graph(TreeUniverse(alphabet))


def prefix_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.prefix_pair(TreeUniverse(alphabet))
