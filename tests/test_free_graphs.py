import inspect
from itertools import product

import pytest

from opergraph import (LEAF, Alphabet, Combination, contract_node, corolla,
                       enumerate_trees, free_graphs, node_stats, parse_term)
from opergraph.free_graphs import (phi_free, prefix_graph, prefix_pair, theta_row_sums,
                                   twisted_graph, up_star_free, v_star_free)
from opergraph.operads import OracleBoundError, TreeUniverse, self_pair
from opergraph.tree import nf

from oracles import linear_extensions


def test_up_free_examples(a2):
    assert prefix_graph(a2).up(LEAF) == \
        Combination.unit(TreeUniverse(a2), corolla(a2["a"]))
    up = prefix_graph(a2).up(parse_term("a[*,*]", a2))
    assert up == Combination(TreeUniverse(a2), {
        parse_term("a[a[*,*],*]", a2): 1,
        parse_term("a[*,a[*,*]]", a2): 1,
    })
    e1c3 = Alphabet.parse("e:1,c:3")
    assert len(prefix_graph(e1c3).up(corolla(e1c3["c"]))) == 6


def test_up_star_free_examples(a2):
    assert not up_star_free(LEAF, a2)
    star = up_star_free(parse_term("a[a[*,*],a[*,*]]", a2), a2)
    assert star == Combination(TreeUniverse(a2), {
        parse_term("a[a[*,*],*]", a2): 1,
        parse_term("a[*,a[*,*]]", a2): 1,
    })


def test_v_star_free_recurrence_cases(a2c3, eac):
    assert not v_star_free(LEAF, a2c3)
    # a node whose children beyond the first are all leaves contracts to
    # its first subtree
    for s_term in ("*", "a[*,*]", "c[a[*,*],*,*]"):
        s = parse_term(s_term, a2c3)
        t = parse_term(f"a[{s_term},*]", a2c3)
        assert v_star_free(t, a2c3) == Combination.unit(TreeUniverse(a2c3), s)

    t = parse_term("c[a[*,*],c[e[*],*,*],c[*,a[*,*],c[*,*,*]]]", eac)
    assert v_star_free(t, eac) == Combination(TreeUniverse(eac), {
        parse_term("c[a[*,*],e[*],c[*,a[*,*],c[*,*,*]]]", eac): 1,
        parse_term("c[a[*,*],c[e[*],*,*],c[*,*,c[*,*,*]]]", eac): 1,
        parse_term("c[a[*,*],c[e[*],*,*],c[*,a[*,*],*]]", eac): 1,
    })


@pytest.mark.parametrize("alphabet_text", ["a:2", "a:2,c:3", "e:1,c:3"])
def test_v_star_equals_quasi_maximal_contractions(alphabet_text):
    alphabet = Alphabet.parse(alphabet_text)
    universe = TreeUniverse(alphabet)
    for d in range(6):
        for t in enumerate_trees(alphabet, d):
            by_contraction = Combination(
                universe,
                {contract_node(t, u): 1
                 for u in node_stats(t).quasi_maximal_nodes})
            assert v_star_free(t, alphabet) == by_contraction


def test_v_free_examples(a2, eac):
    assert twisted_graph(eac).up(LEAF) == Combination(
        TreeUniverse(eac), {corolla(letter): 1 for letter in eac})
    nine = twisted_graph(eac).up(parse_term("a[*,a[*,*]]", eac))
    assert len(nine) == 9
    assert all(c == 1 for _, c in nine.terms())


def test_singleton_twisted_graph_is_a_tree(a2):
    graph = twisted_graph(a2)
    for d in range(1, 5):
        for t in enumerate_trees(a2, d):
            assert len(graph.up_adjoint(t)) == 1


def test_hook_closed_form_examples(a2):
    free = TreeUniverse(a2)
    assert free.hook_u(LEAF) == 1
    comb = parse_term("a[a[a[a[*,*],*],*],*]", a2)
    assert free.hook_u(comb) == 1
    balanced = parse_term("a[a[*,*],a[*,*]]", a2)
    assert free.hook_u(balanced) == 2
    assert linear_extensions(balanced) == 2


def test_twisted_hook_examples(eac):
    free = TreeUniverse(eac)
    assert free.hook_v(LEAF) == 1
    t = parse_term("c[a[c[*,*,*],e[*]],c[*,*,*],e[a[a[*,*],*]]]", eac)
    assert free.hook_v(t) == 4
    count, words = linear_extensions(t, twisted=True, return_words=True)
    assert count == 4
    assert words == [
        ((1, 1), (1,), (1, 2), (), (2,), (3, 1, 1), (3, 1), (3,)),
        ((1, 1), (1,), (1, 2), (), (3, 1, 1), (2,), (3, 1), (3,)),
        ((1, 1), (1,), (1, 2), (), (3, 1, 1), (3, 1), (2,), (3,)),
        ((1, 1), (1,), (1, 2), (), (3, 1, 1), (3, 1), (3,), (2,)),
    ]


def test_hooks_equal_linear_extensions(a2c3):
    free = TreeUniverse(a2c3)
    for d in range(5):
        for t in enumerate_trees(a2c3, d):
            assert free.hook_u(t) == linear_extensions(t)
            assert free.hook_v(t) == linear_extensions(t, twisted=True)


def test_linear_extensions_chain_and_bound(a2):
    chain = parse_term("a[a[a[*,*],*],*]", a2)
    assert linear_extensions(chain) == 1
    term = "*"
    for _ in range(9):
        term = f"a[{term},*]"
    big = parse_term(term, a2)
    assert big.degree == 9
    with pytest.raises(OracleBoundError):
        linear_extensions(big)
    assert linear_extensions(big, bound=9) == 1


def test_theta_examples(a2, a2c3):
    assert theta_row_sums(a2, 0) == [1]
    assert theta_row_sums(a2, 3)[3] == 6
    assert theta_row_sums(a2c3, 4)[4] == 938
    assert theta_row_sums(a2, 7) == [1, 1, 2, 6, 24, 120, 720, 5040]


def theta_by_letter_words(alphabet, d):
    """Initial paths to degree d counted one letter word w at a time: the
    k-th graft has 1 + sum_{j<k} (|w_j| - 1) leaves to choose from."""
    total = 0
    for word in product(alphabet, repeat=d):
        leaves, count = 1, 1
        for letter in word:
            count *= leaves
            leaves += letter.arity - 1
        total += count
    return total


@pytest.mark.parametrize("text,d_max", [
    ("a:2,c:3", 10), ("e:1,a:2,c:3", 8), ("c:3,d:4", 10), ("e:1", 6), ("", 4)])
def test_theta_row_sums_match_the_letter_word_oracle(text, d_max):
    alphabet = Alphabet.parse(text)
    assert theta_row_sums(alphabet, d_max) == \
        [theta_by_letter_words(alphabet, d) for d in range(d_max + 1)]


def test_nf_and_phi_free(a2, eac):
    assert nf(LEAF) == 1
    assert phi_free(LEAF, a2) == 1
    t = parse_term("c[a[*,*],c[e[*],*,*],c[*,a[*,*],c[*,*,*]]]", eac)
    assert phi_free(t, eac) == 3 * 5
    # one non-first leaf survives under a binary root with a left subtree
    assert phi_free(parse_term("a[a[*,*],*]", a2), a2) == 1
    for d in range(4):
        for tree in enumerate_trees(eac, d):
            assert nf(tree) == len(node_stats(tree).non_first_leaves)


def test_phi_self_singleton(a2, a2b2):
    assert TreeUniverse(a2).phi_self(LEAF) == 1
    assert TreeUniverse(a2).phi_self(parse_term("a[*,*]", a2)) == 1
    with pytest.raises(ValueError, match="only for singleton alphabets, got a:2,b:2"):
        TreeUniverse(a2b2).phi_self(LEAF)


def test_self_commutator_witness_two_letters(a2b2):
    pair = self_pair(TreeUniverse(a2b2))
    commutator = pair.duality_commutator(parse_term("a[*,*]", a2b2))
    assert commutator == Combination(TreeUniverse(a2b2), {
        parse_term("a[*,*]", a2b2): 3,
        parse_term("b[*,*]", a2b2): -1,
    })


def test_duality_with_unary_letter():
    e1c3 = Alphabet.parse("e:1,c:3")
    report = prefix_pair(e1c3).check_phi_diagonal(
        lambda t: phi_free(t, e1c3), 3)
    assert report.ok


def test_unary_twisted_graph_is_the_line():
    e1 = Alphabet.parse("e:1")
    graph = twisted_graph(e1)
    for d in range(5):
        slice_ = enumerate_trees(e1, d)
        assert len(slice_) == 1
        assert len(graph.up(slice_[0])) == 1


def test_hook_series_match_closed_forms(a2c3):
    free = TreeUniverse(a2c3)
    u_hooks = {x: h for s in prefix_graph(a2c3).iter_hook_slices(4) for x, h in s.items()}
    v_hooks = {x: h for s in twisted_graph(a2c3).iter_hook_slices(4) for x, h in s.items()}
    for d in range(5):
        for t in enumerate_trees(a2c3, d):
            assert u_hooks[t] == free.hook_u(t)
            assert v_hooks[t] == free.hook_v(t)


def test_module_functions_are_the_pinned_ones():
    """The public functions of the module: the alphabet-taking calls the
    benchmark reads by name, and the ``theta_row_sums`` re-export.  The
    closed forms the CLI prints are ``TreeUniverse`` methods."""
    found = {name for name, value in vars(free_graphs).items()
             if inspect.isfunction(value) and not name.startswith("_")}
    assert found == {
        "phi_free", "up_star_free", "v_star_free", "prefix_graph", "twisted_graph",
        "prefix_pair", "theta_row_sums",
    }
    imported = {name for name in found
                if getattr(free_graphs, name).__module__ != free_graphs.__name__}
    assert imported == {"theta_row_sums"}
