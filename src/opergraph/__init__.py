"""Exact combinatorics of graded graphs built from decorated trees and
operads: grafting/twisted-grafting graph pairs, hook statistics, diagonal
duality checks, the prefix order with its interval machinery, and the
generating series tying them together.  All arithmetic is exact."""

from .alphabet import Alphabet, Letter
from .graded_graph import GradedGraph, GradedGraphPair
from .operads import TreeUniverse
from .poly import Combination
from .series import Series2
from .tree import (LEAF, SyntaxTree, compose_address, compose_forest,
                   compose_index, contract_node, corolla, delete_node,
                   enumerate_trees, is_prefix, node, node_stats, parse_term,
                   subtree_at)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Letter", "Combination", "Series2",
    "GradedGraph", "GradedGraphPair", "LEAF", "SyntaxTree", "TreeUniverse",
    "compose_address", "compose_forest", "compose_index", "contract_node",
    "corolla", "delete_node", "enumerate_trees", "is_prefix", "node",
    "node_stats", "parse_term", "subtree_at",
]
