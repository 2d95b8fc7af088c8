import importlib
import pkgutil
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import opergraph
from opergraph import (LEAF, Alphabet, Letter, SyntaxTree, TreeUniverse, compose_address,
                       compose_forest, compose_index, contract_node, corolla,
                       delete_node, enumerate_trees, free_graphs, is_prefix, node,
                       node_stats, parse_term, subtree_at)
from opergraph.free_graphs import twisted_graph
from opergraph.tree import _INTERN, AddressError, ParseError, _nodes, format_address, nf

from oracles import is_stringy
from series_oracle import interval_series_by_iteration

ABC = Alphabet.parse("a:2,b:2,c:3")

# the degree-5 running example: c at the root, a corolla of b, a bare leaf,
# and an a-node carrying a c-corolla and an a-corolla
RUNNING = parse_term("c[b[*,*],*,a[c[*,*,*],a[*,*]]]", ABC)


def test_parse_render_roundtrip():
    assert parse_term("*", ABC) is LEAF
    t = parse_term(" a[ b[*, *], * ] ", ABC)
    assert t.term == "a[b[*,*],*]"
    assert t.degree == 2 and t.arity == 3
    assert parse_term(t.term, ABC) is t


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_term("a[*,*,*]", Alphabet.parse("a:2"))
    assert "arity" in str(err.value) and err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_term("z[*,*]", ABC)
    assert "unknown letter" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("a[*,*] junk", ABC)
    with pytest.raises(ParseError):
        parse_term("a[*,", ABC)


def test_subtree_at_running_example():
    assert subtree_at(RUNNING, (1,)) == parse_term("b[*,*]", ABC)
    assert subtree_at(RUNNING, (2,)) is LEAF
    assert subtree_at(RUNNING, (3, 2)) == corolla(ABC["a"])
    assert subtree_at(RUNNING, ()) is RUNNING
    with pytest.raises(AddressError):
        subtree_at(parse_term("a[*,*]", ABC), (3,))


def test_node_stats_running_example():
    stats = node_stats(RUNNING)
    assert stats.internal_nodes == ((), (1,), (3,), (3, 1), (3, 2))
    assert stats.leaves == ((1, 1), (1, 2), (2,),
                            (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2))
    assert len(stats.nodes) == 13


def test_node_stats_leaf():
    stats = node_stats(LEAF)
    assert stats.leaves == ((),)
    assert stats.internal_nodes == ()
    assert stats.non_first_leaves == ((),)


def test_quasi_maximal_and_non_first_framed_examples(eac):
    t = parse_term("c[a[*,*],c[e[*],*,*],c[*,a[*,*],c[*,*,*]]]", eac)
    stats = node_stats(t)
    assert stats.quasi_maximal_nodes == ((2,), (3, 2), (3, 3))
    assert len(stats.non_first_leaves) == 5
    assert stats.non_first_leaves == ((2, 2), (2, 3), (3, 2, 2), (3, 3, 2), (3, 3, 3))


@pytest.mark.parametrize("text, message, position", [
    ("", "unexpected end of input", 0),
    ("a[*,", "unexpected end of input", 4),
    ("a[]", "expected '*' or a letter, found ']'", 2),
    ("a(*,*)", "expected '[' after letter 'a'", 1),
    ("a", "expected '[' after letter 'a'", 1),
    ("a[*;*]", "expected ',' or ']'", 3),
    ("a[*,*", "expected ',' or ']'", 5),
])
def test_each_syntax_error_names_its_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_term(text, ABC)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("i", [0, 3])
def test_compose_index_rejects_a_missing_leaf(i):
    with pytest.raises(IndexError, match=r"leaf index -?\d+ out of range 1\.\.2 for a\[\*,\*\]"):
        compose_index(corolla(ABC["a"]), i, LEAF)


def test_compose_index_worked_example():
    t = parse_term("a[b[*,a[*,*]],c[*,*,*]]", ABC)
    s = parse_term("c[*,*,b[*,*]]", ABC)
    expected = parse_term("a[b[*,a[*,*]],c[*,c[*,*,b[*,*]],*]]", ABC)
    assert compose_index(t, 5, s) == expected
    # the fifth leaf sits at address 22
    assert node_stats(t).leaves[4] == (2, 2)
    assert compose_address(t, (2, 2), s) == expected


def test_compose_unit_axioms(a2):
    s = parse_term("a[a[*,*],*]", a2)
    assert compose_index(LEAF, 1, s) is s
    for i in range(1, s.arity + 1):
        assert compose_index(s, i, LEAF) is s


def test_compose_degrees_and_arities(a2c3):
    t = parse_term("a[*,c[*,*,*]]", a2c3)
    s = parse_term("c[a[*,*],*,*]", a2c3)
    out = compose_index(t, 3, s)
    assert out.degree == t.degree + s.degree
    assert out.arity == t.arity + s.arity - 1


def test_operad_axioms_exhaustive(a2):
    trees = [t for d in range(3) for t in enumerate_trees(a2, d)]
    for x in trees:
        for y in trees:
            for z in trees:
                # nested composition: inner graft then outer
                for i in range(1, x.arity + 1):
                    for j in range(1, y.arity + 1):
                        lhs = compose_index(compose_index(x, i, y), i + j - 1, z)
                        rhs = compose_index(x, i, compose_index(y, j, z))
                        assert lhs == rhs
                # disjoint grafts commute
                for i in range(1, x.arity + 1):
                    for j in range(i + 1, x.arity + 1):
                        lhs = compose_index(compose_index(x, i, y), j + y.arity - 1, z)
                        rhs = compose_index(compose_index(x, j, z), i, y)
                        assert lhs == rhs


def test_leaf_index_agrees_with_compose_index(a2c3):
    """The i-th leaf of ``node_stats`` is the leaf ``compose_index`` grafts at i."""
    t = parse_term("c[a[*,*],*,c[*,a[*,*],*]]", a2c3)
    s = corolla(a2c3["a"])
    leaves = node_stats(t).leaves
    for i, address in enumerate(leaves, start=1):
        assert compose_address(t, address, s) == compose_index(t, i, s)


def test_delete_node_examples(a2):
    t = parse_term("a[a[*,*],*]", a2)
    assert delete_node(t, (1,)) == parse_term("a[*,*]", a2)
    assert delete_node(corolla(a2["a"]), ()) is LEAF
    with pytest.raises(AddressError):
        delete_node(t, ())  # root has an internal child
    with pytest.raises(AddressError):
        delete_node(t, (2,))  # a leaf


def test_delete_after_graft_roundtrip(a2):
    c = corolla(a2["a"])
    for d in range(5):
        for t in enumerate_trees(a2, d):
            leaves = node_stats(t).leaves
            for i in range(1, t.arity + 1):
                grown = compose_index(t, i, c)
                assert delete_node(grown, leaves[i - 1]) == t


def test_contract_node_examples(a2, a2c3):
    t = parse_term("c[a[*,*],c[*,*,a[a[*,*],a[*,*]]],*]", a2c3)
    assert contract_node(t, (2,)) == parse_term("c[a[*,*],a[a[*,*],a[*,*]],*]", a2c3)
    # on a maximal node contraction and deletion agree
    u = parse_term("a[*,a[*,*]]", a2)
    assert contract_node(u, (2,)) == delete_node(u, (2,)) == parse_term("a[*,*]", a2)
    with pytest.raises(AddressError):
        contract_node(parse_term("a[a[*,*],a[*,*]]", a2), ())


def test_enumerate_trees_counts(a2, a2c3):
    assert enumerate_trees(a2, 0) == [LEAF]
    assert len(enumerate_trees(a2, 3)) == 5
    # canonical order is term-lexicographic
    terms = [t.term for t in enumerate_trees(a2, 2)]
    assert terms == sorted(terms)
    # count oracle: the q^0 row of the interval series solves S = 1 + t * sum_a S^|a|
    series = interval_series_by_iteration(a2c3, 5)
    for d in range(6):
        assert len(enumerate_trees(a2c3, d)) == series[(0, d)]


def test_arity_degree_identity(a2c3):
    for d in range(4):
        for t in enumerate_trees(a2c3, d):
            internal = node_stats(t).internal_nodes
            assert t.arity == 1 + sum(subtree_at(t, u).letter.arity - 1 for u in internal)


def test_every_tree_has_maximal_and_quasi_maximal(eac):
    for d in range(1, 4):
        for t in enumerate_trees(eac, d):
            stats = node_stats(t)
            assert stats.maximal_nodes
            assert stats.quasi_maximal_nodes


def test_is_prefix_examples(a2):
    assert is_prefix(LEAF, parse_term("a[a[*,*],*]", a2))
    assert is_prefix(parse_term("a[*,*]", a2), parse_term("a[a[*,*],*]", a2))
    assert not is_prefix(parse_term("a[*,*]", ABC), parse_term("b[*,*]", ABC))


def test_is_prefix_against_decomposition_search(a2):
    # brute force: s is a prefix of t iff some forest recomposes s into t
    from itertools import product
    trees = [t for d in range(4) for t in enumerate_trees(a2, d)]
    pool = [t for d in range(4) for t in enumerate_trees(a2, d)]
    for s in trees:
        for t in trees:
            found = False
            if t.degree >= s.degree:
                for forest in product(pool, repeat=s.arity):
                    if sum(r.degree for r in forest) != t.degree - s.degree:
                        continue
                    if compose_forest(s, forest) == t:
                        found = True
                        break
            assert is_prefix(s, t) == found


def test_address_formatting():
    assert format_address(()) == "e"
    assert format_address((3, 2)) == "32"
    assert format_address((3, 12, 1)) == "3.12.1"


def test_wide_node_addresses():
    wide = Alphabet.parse("w:12")
    t = parse_term("w[" + ",".join(["*"] * 11 + ["w[" + ",".join(["*"] * 12) + "]"]) + "]", wide)
    stats = node_stats(t)
    assert (12,) in stats.internal_nodes
    assert format_address(stats.leaves[-1]) == "12.12"


# -- hash-consing --------------------------------------------------------------

def _render_recursively(t: SyntaxTree) -> str:
    """Independent rendering, from the structure alone."""
    if t.is_leaf:
        return "*"
    return f"{t.letter.name}[{','.join(_render_recursively(c) for c in t.children)}]"


def test_trees_are_interned_by_letter_and_children(a2c3):
    assert "__eq__" not in vars(SyntaxTree) and "__hash__" not in vars(SyntaxTree)
    t = parse_term("c[a[*,*],*,*]", a2c3)
    assert _INTERN["c"][t.children]() is t
    assert all(type(key) is tuple and all(isinstance(c, SyntaxTree) for c in key)
               for key in _INTERN["c"])
    assert node(Letter("c", 3), t.children) is t
    with pytest.raises(ValueError, match="arity"):
        node(Letter("c", 2), t.children)


def test_the_intern_table_holds_trees_weakly():
    """Two live builds of one term are one object; once nobody holds the
    tree, it is freed at once and its entry leaves the table."""
    held = Alphabet.parse("held:2,one:1")
    t = parse_term("held[one[*],held[*,*]]", held)
    assert parse_term(t.term, held) is t is node(held["held"], t.children)
    key, dead = t.children, weakref.ref(t)
    del t
    assert dead() is None and key not in _INTERN["held"]
    # the children stay, held by the key
    assert _INTERN["held"][(LEAF, LEAF)]() is key[1]


def test_the_batch_path_interns_like_node():
    """``_nodes`` returns for each tuple the object ``node`` returns, enters
    each new tree in the table, and the entry leaves with the tree."""
    batch = Alphabet.parse("batch:2,one:1")
    one = parse_term("one[*]", batch)
    letter = batch["batch"]
    live = node(letter, (one, LEAF))
    tuples = [(LEAF, LEAF), (one, LEAF), (LEAF, one), (one, one), (LEAF, LEAF)]
    table = _INTERN["batch"]
    before = set(table)
    trees = _nodes(letter, tuples)
    assert trees == [node(letter, kids) for kids in tuples]
    assert trees[1] is live and trees[0] is trees[4]
    assert set(table) == before | set(tuples)
    assert all(table[kids]() is t for kids, t in zip(tuples, trees))
    dead = [weakref.ref(t) for t in trees]
    del trees, live
    assert [ref() for ref in dead] == [None] * len(tuples)
    assert not any(kids in table for kids in tuples)


def _parse_term_recursive(text, alphabet):
    """The recursive-descent parser ``parse_term`` replaced: the reference
    for its trees, its error messages and their positions."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "*":
            pos += 1
            return LEAF
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ParseError(f"expected '*' or a letter, found {text[pos]!r}", pos)
        letter = alphabet.get(name)
        if letter is None:
            raise ParseError(f"unknown letter {name!r}", start)
        skip_ws()
        if pos >= len(text) or text[pos] != "[":
            raise ParseError(f"expected '[' after letter {name!r}", pos)
        pos += 1
        children = [parse()]
        skip_ws()
        while pos < len(text) and text[pos] == ",":
            pos += 1
            children.append(parse())
            skip_ws()
        if pos >= len(text) or text[pos] != "]":
            raise ParseError("expected ',' or ']'", pos)
        pos += 1
        if len(children) != letter.arity:
            raise ParseError(
                f"letter {name!r} has arity {letter.arity}, got {len(children)} children",
                start)
        return node(letter, children)

    result = parse()
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}", pos)
    return result


# names that share prefixes or carry '_' and digits
SOUP_ALPHABET = Alphabet.parse("e:1,a:2,c:3,ab:2,a_1:1")
SOUP_TOKENS = ["a", "c", "e", "ab", "a_1", "*", "[", "]", ",", " ", "\x1c", "\t", "é", "_",
               "1", "x", "a[", "c[", "e[", "*,", "*]"]


def _outcome(parse, text):
    try:
        return parse(text, SOUP_ALPHABET)
    except ParseError as error:
        return str(error), error.position


def _assert_parses_like_the_reference(text):
    want, got = _outcome(_parse_term_recursive, text), _outcome(parse_term, text)
    if isinstance(want, SyntaxTree):
        assert got is want
    else:
        assert got == want


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=30).map("".join))
def test_parser_matches_the_recursive_reference_on_token_soup(text):
    _assert_parses_like_the_reference(text)


terms = st.recursive(
    st.just(["*"]),
    lambda kids: st.sampled_from(SOUP_ALPHABET.letters).flatmap(
        lambda letter: st.lists(kids, min_size=letter.arity, max_size=letter.arity).map(
            lambda children: [letter.name, "["] + [
                token for i, child in enumerate(children)
                for token in ([","] if i else []) + child] + ["]"])),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(terms,
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from([" ", "\x1c", "\t"])),
                max_size=6),
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from(SOUP_TOKENS + [""])),
                max_size=2))
def test_parser_matches_the_recursive_reference_on_edited_terms(tokens, spaces, edits):
    """Well-formed terms, with whitespace between tokens (still well formed)
    and up to two tokens replaced by soup or dropped (mostly malformed, and
    failing late in the text)."""
    tokens = list(tokens)
    for i, space in spaces:
        tokens.insert(i % (len(tokens) + 1), space)
    for i, token in edits:
        tokens[i % len(tokens)] = token
    _assert_parses_like_the_reference("".join(tokens))


def test_a_term_of_any_depth_parses():
    """One loop over the text with an explicit stack: 100,000 levels."""
    alphabet = Alphabet.parse("e:1")
    text = "e[" * 100_000 + "*" + "]" * 100_000
    t = parse_term(text, alphabet)
    assert t.degree == 100_000
    assert parse_term(t.term, alphabet) is t


def test_deep_trees_render_without_recursion():
    e = Letter("e", 1)
    t = LEAF
    for _ in range(5000):
        t = node(e, (t,))
    assert t.degree == 5000
    assert t.term == "e[" * 5000 + "*" + "]" * 5000


# Each check walks a right comb a[*,a[*,...]] of depth D, three times the
# recursion limit, so a walk that recursed once per level would raise
# RecursionError.  The limit is lowered for the test to keep the comb small:
# the twisted up row of a comb of depth D interns about 3·D²/2 new nodes.
DEEP_COMB_CHECKS = {
    "nf": lambda a, t, d: nf(t) == 1,
    "hooks": lambda a, t, d: TreeUniverse(a).hook_u(t) == TreeUniverse(a).hook_v(t) == 1,
    "contains": lambda a, t, d: TreeUniverse(a).contains(t),
    "is_stringy": lambda a, t, d: is_stringy(t),
    "twisted_up": lambda a, t, d: len(twisted_graph(a).up(t)) == 3 * (d + 1),
    "delete_node": lambda a, t, d: delete_node(t, (2,) * (d - 1)).degree == d - 1,
    "contract_node": lambda a, t, d: contract_node(t, (2,) * (d - 1)).degree == d - 1,
    "compose_address": lambda a, t, d:
        subtree_at(compose_address(t, (2,) * d, corolla(a["c"])), (2,) * d) is corolla(a["c"]),
    "node_stats": lambda a, t, d: len(node_stats(t).leaves) == d + 1,
}


@pytest.fixture
def low_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("check", DEEP_COMB_CHECKS)
def test_tree_walks_take_a_comb_deeper_than_the_recursion_limit(eac, low_recursion_limit, check):
    depth = 3 * sys.getrecursionlimit()
    comb = LEAF
    for _ in range(depth):
        comb = node(eac["a"], (LEAF, comb))
    assert DEEP_COMB_CHECKS[check](eac, comb, depth)


def test_module_caches_are_the_pinned_ones():
    """Every module-global cache in the package, which a cache reset or a
    cache report has to cover."""
    found = {"opergraph.tree._INTERN"}
    for info in pkgutil.iter_modules(opergraph.__path__):
        module = importlib.import_module(f"opergraph.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.add(f"{module.__name__}.{name}")
    assert found == {"opergraph.tree._INTERN"}
    assert not hasattr(nf, "cache_info")
    assert not hasattr(free_graphs, "_DEGREE_PRODUCTS")
    assert not hasattr(free_graphs, "_TWISTED_HOOKS")


def test_package_exports_are_the_pinned_ones():
    assert sorted(opergraph.__all__) == [
        "Alphabet", "Combination", "GradedGraph", "GradedGraphPair", "LEAF", "Letter",
        "Series2", "SyntaxTree", "TreeUniverse", "compose_address", "compose_forest",
        "compose_index", "contract_node", "corolla", "delete_node", "enumerate_trees",
        "is_prefix", "node", "node_stats", "parse_term", "subtree_at",
    ]
    namespace = {}
    exec("from opergraph import *", namespace)
    assert set(opergraph.__all__) <= set(namespace)


# letter names that share prefixes, so that name order and term order differ
# ("a0[" sorts before "a[")
alphabets = st.dictionaries(
    st.sampled_from(["a", "a0", "a_1", "b"]), st.integers(1, 3), min_size=1
).map(lambda arities: Alphabet(Letter(name, k) for name, k in arities.items()))


@settings(max_examples=40, deadline=None)
@given(alphabets)
def test_enumeration_is_term_ordered_and_terms_round_trip(alphabet):
    for degree in range(4):
        trees = enumerate_trees(alphabet, degree)
        terms = [_render_recursively(t) for t in trees]
        assert terms == sorted(terms)
        assert [t.term for t in trees] == terms
        for t in trees:
            assert parse_term(t.term, alphabet) is t


def test_every_constructor_yields_the_same_object(eac):
    target = parse_term("a[c[e[*],*,*],a[*,*]]", eac)
    grafted = compose_index(
        compose_index(corolla(eac["a"]), 1, corolla(eac["c"])), 1, corolla(eac["e"]))
    grafted = compose_index(grafted, 4, corolla(eac["a"]))
    assert grafted is target
    assert parse_term(" a[ c[e[*], *, *], a[*, *] ] ", eac) is target
