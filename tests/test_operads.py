import gc
import math
import weakref
from collections import Counter
from dataclasses import is_dataclass
from itertools import product

import pytest

from opergraph import (LEAF, Alphabet, Combination, Letter, TreeUniverse, compose_index,
                       corolla, enumerate_trees, is_prefix, node, parse_term)
from opergraph.operads import (AsOperad, CompOperad, FCatOperad, OracleBoundError, Operad,
                               WordOperad, evaluate_tree, get_operad, minimal_generators,
                               prefix_graph, prefix_pair, render_word,
                               self_pair, treelike_expressions, twisted_graph,
                               v_operad_oracle)

from oracles import operad_poset_leq

AS = get_operad("as")
DIAS = get_operad("dias")
COMP = get_operad("comp")
MOTZ = get_operad("motz")
FCAT1 = get_operad("fcat:1")
FCAT2 = get_operad("fcat:2")


def elements_up_to(op, d):
    return [x for k in range(d + 1) for x in op.elements_of_rank(k)]


def reference_render_word(u):
    """The two joins of str(letter) that render_word's digit lookup replaces."""
    if all(a <= 9 for a in u):
        return "".join(str(a) for a in u)
    return ",".join(str(a) for a in u)


@pytest.mark.parametrize("selector", ["dias", "comp", "motz", "fcat:0", "fcat:1", "fcat:2",
                                      "fcat:3"])
def test_render_word_matches_the_joins_on_every_word_to_rank_5(selector):
    words = elements_up_to(get_operad(selector), 5)
    assert [render_word(u) for u in words] == [reference_render_word(u) for u in words]


@pytest.mark.parametrize("u", [(10,), (0, 10), (0, 1, 12, 1, 0), (9, 10, 9), (0, 123),
                               (11, 0), (0, 9, 8), ()])
def test_render_word_matches_the_joins_on_wide_letters(u):
    assert render_word(u) == reference_render_word(u)


def test_selectors_and_codec():
    assert get_operad("fcat:2") is FCAT2
    with pytest.raises(ValueError):
        get_operad("nope")
    assert COMP.parse_elem("0101") == (0, 1, 0, 1)
    assert COMP.render_elem((0, 1, 0)) == "010"
    assert MOTZ.parse_elem("0,1,0") == (0, 1, 0)
    big = tuple([0] + list(range(1, 12)))
    assert "," in FCAT2.render_elem(big) or max(big) <= 9
    assert AS.parse_elem("4") == 4
    with pytest.raises(ValueError):
        COMP.parse_elem("10")   # must start with 0
    with pytest.raises(ValueError):
        MOTZ.parse_elem("021")  # must end with 0 and step by at most 1


def test_compose_examples():
    assert AS.compose(3, 2, 2) == 4
    assert COMP.compose((0, 0), 1, (0, 1)) == (0, 1, 0)
    assert DIAS.compose((1, 0), 2, (1, 0)) == (1, 1, 0)


def test_unit_axioms_sampled():
    for op in (DIAS, COMP, MOTZ, FCAT1):
        for x in elements_up_to(op, 3):
            assert op.compose(op.unit, 1, x) == x
            for i in range(1, op.arity(x) + 1):
                assert op.compose(x, i, op.unit) == x


def test_operad_axioms_sampled():
    for op in (DIAS, COMP, MOTZ):
        pool = elements_up_to(op, 2)
        for x in pool:
            for y in pool:
                for z in pool:
                    for i in range(1, op.arity(x) + 1):
                        for j in range(1, op.arity(y) + 1):
                            lhs = op.compose(op.compose(x, i, y), i + j - 1, z)
                            rhs = op.compose(x, i, op.compose(y, j, z))
                            assert lhs == rhs


def test_membership_preserved_under_composition():
    for op in (DIAS, COMP, MOTZ, FCAT2):
        pool = elements_up_to(op, 2)
        for x in pool:
            for y in pool:
                for i in range(1, op.arity(x) + 1):
                    assert op.contains(op.compose(x, i, y))


def test_dias_presentation_relations():
    c01, c10 = (0, 1), (1, 0)
    compose = DIAS.compose
    assert compose(c01, 1, c01) == compose(c01, 2, c01) == compose(c01, 2, c10) == (0, 1, 1)
    assert compose(c01, 1, c10) == compose(c10, 2, c01) == (1, 0, 1)
    assert compose(c10, 1, c01) == compose(c10, 1, c10) == compose(c10, 2, c10) == (1, 1, 0)


def test_degree_examples():
    assert MOTZ.degree((0, 1, 0, 1, 0)) == 2
    assert COMP.degree((0, 1, 1, 0)) == 3
    for op in (AS, DIAS, COMP, MOTZ, FCAT1):
        assert op.degree(op.unit) == 0
        for g in op.generators:
            assert op.degree(g) == 1


def test_elements_of_degree_and_arity():
    assert AS.elements_of_rank(3) == [4]
    assert DIAS.elements_of_rank(2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert len(COMP.elements_of_rank(5)) == 32
    # path counts by arity are the classic unit-step path numbers
    assert [len(MOTZ.elements_of_arity(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 21]
    # for word operads graded by length the two enumerations agree
    assert COMP.elements_of_rank(3) == COMP.elements_of_arity(4)
    assert sorted(DIAS.elements_of_rank(3)) == DIAS.elements_of_arity(4)
    # the by-degree slices carry the degree they claim
    for op in (MOTZ, FCAT1):
        for d in range(4):
            for x in op.elements_of_rank(d):
                assert op.degree(x) == d and op.contains(x)
    # fcat:m is graded by length too: its slices grown by grafting are the
    # words of one length
    for m in range(4):
        op = get_operad(f"fcat:{m}")
        for d in range(5):
            assert op.elements_of_rank(d) == sorted(op.elements_of_arity(d + 1),
                                                    key=op.sort_key)


def test_up_examples():
    assert prefix_graph(AS).up(3) == Combination(AS, {4: 3})
    assert prefix_graph(DIAS).up((1, 0)) == \
        Combination(DIAS, {(1, 1, 0): 3, (1, 0, 1): 1})
    assert prefix_graph(FCAT1).up((0, 0)) == \
        Combination(FCAT1, {(0, 0, 0): 2, (0, 0, 1): 1, (0, 1, 0): 1})


def _up_closed_form(op, u):
    """The per-operad insertion descriptions of the grafting map."""
    terms = {}

    def add(w):
        terms[w] = terms.get(w, 0) + 1

    if op is DIAS:
        k = u.index(0)
        ell = len(u) - 1 - k
        return Combination(op, {(1,) * (k + 1) + (0,) + (1,) * ell: 2 * k + 1,
                                (1,) * k + (0,) + (1,) * (ell + 1): 2 * ell + 1})
    for i in range(1, len(u) + 1):
        if op is COMP:
            add(u[:i] + (0,) + u[i:])
            add(u[:i] + (1,) + u[i:])
        elif op is MOTZ:
            add(u[:i] + (u[i - 1],) + u[i:])
            add(u[:i] + (u[i - 1] + 1, u[i - 1]) + u[i:])
        else:  # fcat
            for a in range(op.m + 1):
                add(u[:i] + (u[i - 1] + a,) + u[i:])
    return Combination(op, terms)


@pytest.mark.parametrize("op", [DIAS, COMP, MOTZ, FCAT1, FCAT2])
def test_up_matches_closed_form(op):
    for x in elements_up_to(op, 4):
        assert prefix_graph(op).up(x) == _up_closed_form(op, x)


@pytest.mark.parametrize("selector", ["as", "dias", "comp", "motz",
                                      "fcat:0", "fcat:1", "fcat:2", "fcat:3"])
def test_up_row_matches_the_generic_graft_loop(selector):
    """The direct up rows equal the base class's one compose per
    (generator, position) pair, as dicts."""
    op = get_operad(selector)
    for x in elements_up_to(op, 5):
        assert op.up_row(x) == Operad.up_row(op, x), x


@pytest.mark.parametrize("selector,top", [("comp", 5), ("fcat:0", 5), ("fcat:1", 5),
                                          ("fcat:2", 5), ("fcat:3", 4)])
def test_rank_stream_matches_the_slices_and_the_graft_loop(selector, top):
    """Fed the rows of the rank below, ``up_rows`` yields every element of
    the rank exactly once, each with the base class's compose-built row."""
    op = get_operad(selector)
    below = {}
    for rank in range(top + 1):
        streamed = list(op.up_rows(rank, below))
        assert Counter(x for x, _ in streamed) == Counter(op.elements_of_rank(rank))
        for x, row in streamed:
            assert row == Operad.up_row(op, x), x
        below = dict(streamed)


@pytest.mark.parametrize("make,top,checked", [(CompOperad, 6, 127),
                                              (lambda: FCatOperad(3), 5, 8220)],
                         ids=["comp", "fcat:3"])
def test_a_passing_word_check_builds_no_slice_and_each_row_once(monkeypatch, make, top,
                                                                checked):
    """The rank stream grows each row from its prefix's row: a passing check
    builds no degree slice and computes only the unit's row directly."""
    op = make()
    rows = []
    up_row = WordOperad.up_row

    def spy(self, x):
        rows.append(x)
        return up_row(self, x)

    monkeypatch.setattr(WordOperad, "up_row", spy)
    report = prefix_pair(op).check_phi_diagonal(op.phi, top)
    assert report.ok and report.checked == checked
    assert len(op._degree_slices) == 1
    assert rows == [op.unit]


def test_direct_rows_never_compose(monkeypatch):
    """The (U,V) checks of the operads with direct up rows and closed-form
    star rows run without compose and never build a reverse-edge table."""
    def refuse(*args):
        raise AssertionError("compose called")

    monkeypatch.setattr(WordOperad, "compose", refuse)
    monkeypatch.setattr(AsOperad, "compose", refuse)
    for op in [AsOperad(), CompOperad()] + [FCatOperad(m) for m in (1, 2, 3)]:
        pair = prefix_pair(op)
        assert pair.check_phi_diagonal(op.phi, 4).ok, op
        assert pair.v._reverse == {}, op


@pytest.mark.parametrize("universe", [TreeUniverse(Alphabet.parse(text))
                                      for text in ("a:2", "a:2,c:3", "e:1,c:3")]
                         + [AsOperad(), CompOperad()] + [FCatOperad(m) for m in range(4)],
                         ids=lambda op: op.name)
def test_closed_form_stars_fill_no_reverse_edge_table(universe):
    """A graph with a closed-form star map never fills its reverse-edge
    table, neither in the duality check nor in the hooks; the prefix graphs
    of the operads have none and fill theirs."""
    pair = prefix_pair(universe)
    assert pair.check_phi_diagonal(universe.phi, 4).ok
    list(pair.u.iter_hook_slices(4))
    list(pair.v.iter_hook_slices(4))
    closed = [pair.u, pair.v] if isinstance(universe, TreeUniverse) else [pair.v]
    for graph in (pair.u, pair.v):
        filled = (graph._reverse, graph._reverse_ranks) != ({}, set())
        assert filled is (graph not in closed), graph.name


@pytest.mark.parametrize("selector", ["as", "comp", "fcat:0", "fcat:1", "fcat:2", "fcat:3"])
def test_the_twisted_graph_is_the_tree_of_its_parent_map(selector):
    """To rank 5, each element of ``v_explicit(p)`` has parent p, and each
    element of a slice but the unit is reached from exactly one p of the
    slice below, once: V is the tree of ``v_parent``, every weight 1."""
    op = get_operad(selector)
    assert op.v_parent(op.unit) is None
    for rank in range(1, 6):
        below = op.elements_of_rank(rank - 1)
        for p in below:
            for y in op.v_explicit(p):
                assert op.v_parent(y) == p, y
        reached = Counter(y for p in below for y in op.v_explicit(p))
        assert reached == Counter(op.elements_of_rank(rank))


def test_comp_prefix_graph_matches_known_covers():
    graph = prefix_graph(COMP)
    edges = {}
    for d in range(3):
        for x in COMP.elements_of_rank(d):
            for y, w in graph.up(x).items():
                edges[(COMP.render_elem(x), COMP.render_elem(y))] = w
    expected = {
        ("0", "00"): 1, ("0", "01"): 1,
        ("00", "000"): 2, ("00", "001"): 1, ("00", "010"): 1,
        ("01", "001"): 1, ("01", "010"): 1, ("01", "011"): 2,
        ("000", "0000"): 3, ("000", "0001"): 1, ("000", "0010"): 1, ("000", "0100"): 1,
        ("001", "0001"): 2, ("001", "0010"): 1, ("001", "0101"): 1, ("001", "0011"): 2,
        ("010", "0010"): 1, ("010", "0100"): 2, ("010", "0101"): 1, ("010", "0110"): 2,
        ("011", "0011"): 1, ("011", "0101"): 1, ("011", "0110"): 1, ("011", "0111"): 3,
    }
    assert edges == expected


def test_v_examples():
    assert twisted_graph(AS).up(4) == Combination(AS, {5: 1})
    assert twisted_graph(COMP).up((0, 1, 0)) == \
        Combination(COMP, {(0, 1, 0, 0): 1, (0, 1, 0, 1): 1})
    assert twisted_graph(MOTZ).up((0, 1, 0)) == Combination(MOTZ, {
        (0, 1, 1, 0): 1, (0, 1, 2, 1, 0): 1, (0, 1, 0, 0): 1, (0, 1, 0, 1, 0): 1})
    assert twisted_graph(FCAT1).up((0, 1)) == Combination(FCAT1, {
        (0, 1, 0): 1, (0, 1, 1): 1, (0, 1, 2): 1})


def test_v_is_simple_and_graded():
    """Every edge out of ranks 0..4 goes up one rank with weight 1, and every
    hook to rank 4 is positive."""
    for op in (AS, DIAS, COMP, MOTZ, FCAT1, FCAT2):
        graph = twisted_graph(op)
        exported = graph.export_json(5)
        rank = {node["id"]: node["rank"] for node in exported["nodes"]}
        for edge in exported["edges"]:
            assert (rank[edge["dst"]], edge["w"]) == (rank[edge["src"]] + 1, 1), (op.name, edge)
        for slice_ in graph.iter_hook_slices(4):
            assert min(slice_.values()) > 0, op.name


def test_generator_alphabet_roundtrip():
    alphabet, mapping = MOTZ.generator_alphabet
    assert {letter.name for letter in alphabet} == {"g00", "g010"}
    assert sorted(mapping.values()) == [(0, 0), (0, 1, 0)]
    # evaluation sends each generator corolla to its generator
    from opergraph import corolla
    for letter, g in mapping.items():
        assert evaluate_tree(MOTZ, corolla(letter)) == g


def _collapses_onto(u, v):
    """Split v into len(u) consecutive blocks, block k a path staying at or
    above u[k] that starts and ends at u[k]; the collapsing description of
    the unit-step path order."""

    def split(k, start):
        if k == len(u):
            return start == len(v)
        for end in range(start, len(v)):
            block = v[start:end + 1]
            if block[0] == block[-1] == u[k] and min(block) >= u[k]:
                if split(k + 1, end + 1):
                    return True
        return False

    return split(0, 0)


def test_motz_order_is_factor_collapsing():
    elements = elements_up_to(MOTZ, 3)
    for u in elements_up_to(MOTZ, 2):
        for v in elements:
            assert operad_poset_leq(MOTZ, u, v) == _collapses_onto(u, v)


def test_treelike_expressions_comp():
    alphabet, _ = COMP.generator_alphabet
    trees = treelike_expressions(COMP, (0, 1, 0))
    assert parse_term("g00[g01[*,*],*]", alphabet) in trees
    assert parse_term("g01[*,g01[*,*]]", alphabet) in trees
    assert all(evaluate_tree(COMP, t) == (0, 1, 0) for t in trees)
    assert treelike_expressions(COMP, COMP.unit) == [LEAF]
    with pytest.raises(OracleBoundError):
        treelike_expressions(COMP, tuple([0] * 10))


@pytest.mark.parametrize("name, word", [("g00", (0, 0)), ("g01", (0, 1))])
def test_evaluation_of_a_deep_comb_does_not_recurse(name, word):
    """A right comb 5,000 deep, far past the recursion limit.  Under a 1 in
    comp each inserted word is complemented, so the g01 comb alternates."""
    alphabet, _ = COMP.generator_alphabet
    comb = LEAF
    for _ in range(5000):
        comb = node(alphabet[name], (LEAF, comb))
    assert evaluate_tree(COMP, comb) == (word * 2501)[:5001]


@pytest.mark.parametrize("op", [COMP, MOTZ, FCAT1])
def test_homogeneity_certified(op):
    """Every expression in a fiber has the degree the operad assigns."""
    alphabet, _ = op.generator_alphabet
    for d in range(4):
        for t in enumerate_trees(alphabet, d):
            x = evaluate_tree(op, t)
            assert op.contains(x)
            assert op.degree(x) == d
    # generation: every element of small degree has a nonempty fiber
    for d in range(4):
        for x in op.elements_of_rank(d):
            assert treelike_expressions(op, x)


def test_v_oracle_examples():
    assert v_operad_oracle(COMP, (0,)) == \
        Combination(COMP, {(0, 0): 1, (0, 1): 1})
    assert v_operad_oracle(MOTZ, (0, 0)) == \
        Combination(MOTZ, {(0, 0, 0): 1, (0, 0, 1, 0): 1})


@pytest.mark.parametrize("op", [COMP, MOTZ, FCAT1])
def test_v_oracle_matches_explicit(op):
    for x in elements_up_to(op, 3):
        assert v_operad_oracle(op, x).support() == twisted_graph(op).up(x).support()


def test_the_free_operad_is_its_own_generator_alphabet(a2c3):
    """A free operad's letters decode to their corollas, so every tree is its
    own one treelike expression and the oracle gives its twisted row."""
    free = TreeUniverse(a2c3)
    twisted = twisted_graph(free)
    for t in elements_up_to(free, 3):
        assert evaluate_tree(free, t) is t
        assert treelike_expressions(free, t) == [t]
        assert v_operad_oracle(free, t).support() == twisted.up(t).support()


def test_phi_examples():
    assert DIAS.phi((0,)) == 2
    assert DIAS.phi((1, 0)) == 9
    assert MOTZ.phi((0, 0)) == 2
    assert MOTZ.phi((0, 1, 0)) == 4
    assert FCAT2.phi((0, 2)) == 3
    # commutator cross-checks
    pair = self_pair(DIAS)
    assert pair.duality_commutator((1, 0)) == Combination(DIAS, {(1, 0): 9})
    assert pair.duality_commutator((0,)) == Combination(DIAS, {(0,): 2})


def test_minimal_generators():
    assert minimal_generators(AS, 4) == [2]
    assert minimal_generators(DIAS, 4) == [(0, 1), (1, 0)]
    assert minimal_generators(COMP, 4) == [(0, 0), (0, 1)]
    assert minimal_generators(MOTZ, 4) == [(0, 0), (0, 1, 0)]
    assert minimal_generators(FCAT2, 3) == [(0, 0), (0, 1), (0, 2)]


def test_operad_poset():
    for op in (COMP, MOTZ):
        for x in elements_up_to(op, 3):
            assert operad_poset_leq(op, op.unit, x)
    # the unit-step path poset is not a meet-semilattice
    assert not operad_poset_leq(MOTZ, (0, 0), (0, 1, 0))
    assert not operad_poset_leq(MOTZ, (0, 1, 0), (0, 0))
    for upper in ((0, 0, 1, 0), (0, 1, 0, 0)):
        assert operad_poset_leq(MOTZ, (0, 0), upper)
        assert operad_poset_leq(MOTZ, (0, 1, 0), upper)
    assert not operad_poset_leq(MOTZ, (0, 0, 1, 0), (0, 1, 0, 0))
    assert not operad_poset_leq(MOTZ, (0, 1, 0, 0), (0, 0, 1, 0))


def test_operad_poset_matches_decomposition_search():
    op = COMP
    small = elements_up_to(op, 3)
    by_arity = {}
    for x in small:
        by_arity.setdefault(op.arity(x), []).append(x)

    def full_compose(x, args):
        for i in range(op.arity(x), 0, -1):
            x = op.compose(x, i, args[i - 1])
        return x

    for x in elements_up_to(op, 1):
        for y in small:
            found = False
            slots = op.arity(x)
            gap = op.arity(y) - slots
            if gap >= 0:
                for split in product(range(1, gap + 2), repeat=slots):
                    if sum(split) != op.arity(y):
                        continue
                    for args in product(*[by_arity.get(n, []) for n in split]):
                        if full_compose(x, args) == y:
                            found = True
                            break
                    if found:
                        break
            assert operad_poset_leq(op, x, y) == found


def test_evaluation_is_an_order_preserving_surjection():
    op = COMP
    alphabet, _ = op.generator_alphabet
    images = set()
    for d in range(5):
        for t in enumerate_trees(alphabet, d):
            x = evaluate_tree(op, t)
            images.add(x)
            from opergraph.tree_poset import prefixes
            for s in prefixes(t):
                assert operad_poset_leq(op, evaluate_tree(op, s), x)
    assert images == set(elements_up_to(op, 4))


def test_as_hook_resolved_by_path_oracle():
    graph = prefix_graph(AS)
    hooks = {x: h for s in graph.iter_hook_slices(6) for x, h in s.items()}
    for n in range(1, 8):
        assert graph.path_weight_sum(1, n) == math.factorial(n - 1)
        assert hooks[n] == math.factorial(n - 1)


def test_universe_equality_includes_the_type():
    """fcat:1 names both a one-letter alphabet and an operad; their cached
    graphs must not be confused."""
    free = TreeUniverse(Alphabet.parse("fcat:1"))
    assert free.name == FCAT1.name == "fcat:1"
    assert free != FCAT1 and FCAT1 != free

    def hooks(op):
        graph = prefix_graph(op)
        assert graph.universe is op
        return {op.render_elem(x): c for s in graph.iter_hook_slices(3) for x, c in s.items()}

    chain = ["*", "fcat[*]", "fcat[fcat[*]]", "fcat[fcat[fcat[*]]]"]
    assert hooks(free) == dict.fromkeys(chain, 1)
    assert hooks(FCAT1) != hooks(free)
    assert hooks(FCAT1)["0123"] == 1 and hooks(FCAT1)["0000"] == 6


def test_trees_are_an_operad_with_one_name_per_concept():
    a2 = Alphabet.parse("a:2")
    free = TreeUniverse(a2)
    assert isinstance(free, Operad) and not is_dataclass(free)
    for op in [get_operad(s) for s in ("as", "dias", "comp", "motz", "fcat:0", "fcat:3")] + [free]:
        for alias in ("root", "rank_of", "elements_of_degree"):
            assert not hasattr(op, alias), (op, alias)
    same = TreeUniverse(Alphabet.parse("a:2"))
    assert same is not free and same == free and hash(same) == hash(free)
    assert free != TreeUniverse(Alphabet.parse("a:2,b:2"))
    assert TreeUniverse(Alphabet.parse("fcat:1")) != get_operad("fcat:1")


def _v_explicit_recursive(free, t):
    """The recursive twisted successor list ``TreeUniverse.v_explicit``
    replaced: a new root above t, or, recursively, one inside a child past
    the first.  The reference for its rows."""
    out = [compose_index(g, 1, t) for g in free.generators]
    kids = t.children
    for j in range(1, len(kids)):
        for inner in _v_explicit_recursive(free, kids[j]):
            out.append(node(t.letter, kids[:j] + (inner,) + kids[j + 1:]))
    return out


@pytest.mark.parametrize("text", ["e:1,a:2,c:3", "a:2,b:2"])
def test_twisted_successors_match_the_recursive_reference(text):
    free = TreeUniverse(Alphabet.parse(text))
    for d in range(5):
        for t in free.elements_of_rank(d):
            assert Counter(free.v_explicit(t)) == Counter(_v_explicit_recursive(free, t)), t


def test_tree_v_outdegree_takes_a_comb_100000_deep(eac):
    """The root and every second child, down to the last leaf, each take a
    new root per letter; the walk keeps a stack, so depth is no limit."""
    comb = LEAF
    for _ in range(100_000):
        comb = node(eac["a"], (LEAF, comb))
    assert TreeUniverse(eac).v_outdegree(comb) == len(eac) * 100_001


def test_membership_rejects_a_foreign_letter_at_any_depth(eac):
    free = TreeUniverse(eac)
    foreign = Letter("b", 2)
    for depth in (0, 1, 40):
        t = node(foreign, (LEAF, LEAF))
        for _ in range(depth):
            t = node(eac["a"], (LEAF, t))
        assert not free.contains(t)
        assert not free.contains(node(eac["a"], (t, LEAF)))
    assert free.contains(node(eac["a"], (LEAF, corolla(eac["c"]))))
    assert not free.contains((0, 1))


def test_free_universes_on_equal_alphabets_are_equal():
    """Universes are equal and hash equal on equal alphabets."""
    a2c3 = Alphabet.parse("a:2,c:3")
    same = Alphabet.parse(a2c3.render())
    assert same is not a2c3
    assert TreeUniverse(a2c3) == TreeUniverse(same)
    assert hash(TreeUniverse(a2c3)) == hash(TreeUniverse(same))
    assert TreeUniverse(a2c3) != TreeUniverse(Alphabet.parse("a:2"))


def test_builders_give_fresh_graphs_and_a_dropped_pair_is_freed():
    """Each builder call gives a graph of its own; a pair whose check filled
    its V reverse-edge table is collected, table and all, once dropped."""
    pair = prefix_pair(MOTZ)
    assert pair.check_phi_diagonal(MOTZ.phi, 3).ok
    assert pair.v._reverse
    assert prefix_graph(MOTZ) is not pair.u
    assert twisted_graph(MOTZ) is not pair.v
    assert twisted_graph(MOTZ)._reverse == {}
    dropped = weakref.ref(pair.v)
    del pair
    gc.collect()
    assert dropped() is None


def test_every_spelling_of_a_selector_gets_one_operad():
    assert get_operad("FCAT:1") is get_operad("fcat:1")
    assert get_operad(" fcat:01 ") is FCAT1
    assert get_operad(" As") is AS
