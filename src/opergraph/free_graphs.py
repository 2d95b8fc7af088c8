"""The two graded graphs on decorated trees: grafting (prefix) and its
twisted companion, with their closed-form hook statistics and duality map.

Up in the prefix graph grafts one corolla onto a leaf; its adjoint deletes a
maximal node.  The twisted adjoint contracts a quasi-maximal node (an
internal node reachable without first-child steps whose children beyond the
first are leaves); its adjoint inserts above first children only.

Trees over an alphabet are the free operad ``operads.TreeUniverse``, which
carries these four maps; the graphs come from the builders in ``operads``,
and the alphabet-taking functions here are calls on that universe.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial

from . import operads
from .alphabet import Alphabet
from .graded_graph import GradedGraph, GradedGraphPair
from .operads import OracleBoundError, TreeUniverse
from .poly import Combination
from .tree import LEAF, SyntaxTree, _deletions, node_stats


# -- the star maps ----------------------------------------------------------------

def up_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    return prefix_graph(alphabet).star(t)


def v_star_free(t: SyntaxTree, alphabet: Alphabet) -> Combination:
    return twisted_graph(alphabet).star(t)


# -- hook statistics ------------------------------------------------------------

def multinomial(parts) -> int:
    """Number of shuffles of blocks of the given sizes."""
    parts = list(parts)
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def _fold(t: SyntaxTree, factor, memo: dict) -> int:
    """The product of factor(sub) over the internal nodes sub of t.  Subtrees
    are folded children first with an explicit stack, so that depth is no
    limit, and memo keeps each subtree's product across calls."""
    stack = [t]
    while stack:
        sub = stack[-1]
        if sub in memo:
            stack.pop()
            continue
        pending = [c for c in sub.children if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        out = factor(sub)
        for c in sub.children:
            out *= memo[c]
        memo[sub] = out
    return memo[t]


_DEGREE_PRODUCTS: dict = {LEAF: 1}
_TWISTED_HOOKS: dict = {LEAF: 1}


def hook_closed_form(t: SyntaxTree) -> int:
    """deg(t)! divided by the product of the degrees of all internal-node
    subtrees; counts the linear extensions of the ancestor order of t."""
    return factorial(t.degree) // _fold(t, lambda sub: sub.degree, _DEGREE_PRODUCTS)


def twisted_hook(t: SyntaxTree) -> int:
    """Linear extensions of the twisted ancestor order: the shuffle factor
    skips the first child."""
    return _fold(t, lambda sub: multinomial(c.degree for c in sub.children[1:]),
                 _TWISTED_HOOKS)


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


# -- path enumeration by arity ------------------------------------------------------

def theta_table(alphabet: Alphabet, d_max: int) -> dict[tuple[int, int], int]:
    """Initial path counts to trees of degree d and arity n.

    theta(0,1) = 1 and theta(d,n) sums (n+1-|a|) * theta(d-1, n+1-|a|) over
    letters of arity at most n; rows are supported on 1 <= n <= 1+(m-1)d for
    m the maximal arity.
    """
    m = alphabet.max_arity()
    table: dict[tuple[int, int], int] = {(0, 1): 1}
    for d in range(1, d_max + 1):
        for n in range(1, 1 + max(m - 1, 0) * d + 1):
            total = 0
            for letter in alphabet:
                if letter.arity <= n:
                    total += (n + 1 - letter.arity) * table.get((d - 1, n + 1 - letter.arity), 0)
            if total:
                table[(d, n)] = total
    return table


def theta_row_sums(alphabet: Alphabet, d_max: int) -> list[int]:
    table = theta_table(alphabet, d_max)
    return [sum(c for (d, _), c in table.items() if d == row) for row in range(d_max + 1)]


# -- graph builders ----------------------------------------------------------------

def prefix_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.prefix_graph(TreeUniverse(alphabet))


def twisted_graph(alphabet: Alphabet) -> GradedGraph:
    return operads.twisted_graph(TreeUniverse(alphabet))


def prefix_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.prefix_pair(TreeUniverse(alphabet))


def self_pair(alphabet: Alphabet) -> GradedGraphPair:
    return operads.self_pair(TreeUniverse(alphabet))
