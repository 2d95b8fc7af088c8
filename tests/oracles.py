"""Brute-force test oracles for the free and operad graphs, independent of
the closed forms and the orders that the package computes.

* ``linear_extensions`` counts the linear extensions of a tree's (twisted)
  ancestor order by filtering every permutation of its internal nodes: the
  oracle for the closed forms ``TreeUniverse.hook_u`` and ``hook_v``.
* ``operad_poset_leq`` decides an operad's prefix order by walking U fronts.
* ``is_stringy`` tests a tree for the stringy shape that ``stringy_count``
  counts in closed form.
"""
from itertools import permutations

from opergraph import node_stats
from opergraph.operads import OracleBoundError, prefix_graph
from opergraph.tree import _subtrees


def _ancestor_pairs(t, twisted):
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


def linear_extensions(t, twisted=False, *, bound=8, return_words=False):
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


def operad_poset_leq(op, x, y):
    """x below y in the prefix order: some path of generator grafts leads
    from x to y (every edge weight is positive)."""
    return prefix_graph(op).path_weight_sum(x, y) > 0


def is_stringy(t):
    """At most one internal child under every internal node."""
    return all(sum(not c.is_leaf for c in sub.children) <= 1 for sub in _subtrees(t))
