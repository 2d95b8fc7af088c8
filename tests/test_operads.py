import math
from dataclasses import is_dataclass
from itertools import product

import pytest

from opergraph import (LEAF, Alphabet, Combination, TreeUniverse, enumerate_trees,
                       is_prefix, parse_term)
from opergraph.free_graphs import OracleBoundError
from opergraph.operads import (NotDiagonalError, Operad, compose_operad,
                               degree_operad, evaluate_tree, generator_alphabet,
                               get_operad, minimal_generators, operad_poset_leq,
                               prefix_graph, prefix_pair, self_pair,
                               treelike_expressions, twisted_graph, v_operad_oracle)

AS = get_operad("as")
DIAS = get_operad("dias")
COMP = get_operad("comp")
MOTZ = get_operad("motz")
FCAT1 = get_operad("fcat:1")
FCAT2 = get_operad("fcat:2")


def elements_up_to(op, d):
    return [x for k in range(d + 1) for x in op.elements_of_rank(k)]


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
    assert compose_operad(AS, 3, 2, 2) == 4
    assert compose_operad(COMP, (0, 0), 1, (0, 1)) == (0, 1, 0)
    assert compose_operad(DIAS, (1, 0), 2, (1, 0)) == (1, 1, 0)
    with pytest.raises(IndexError):
        compose_operad(AS, 2, 3, 2)
    with pytest.raises(ValueError):
        compose_operad(COMP, (1, 0), 1, (0,))


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
    assert degree_operad(MOTZ, (0, 1, 0, 1, 0)) == 2
    assert degree_operad(COMP, (0, 1, 1, 0)) == 3
    for op in (AS, DIAS, COMP, MOTZ, FCAT1):
        assert degree_operad(op, op.unit) == 0
        for g in op.generators:
            assert degree_operad(op, g) == 1


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
    for op in (AS, DIAS, COMP, MOTZ, FCAT1, FCAT2):
        graph = twisted_graph(op)
        ok, witness = graph.check_simple(4)
        assert ok, witness
        ok, witness = graph.check_graded(4)
        assert ok, witness
        ok, witness = graph.check_rooted(4)
        assert ok, witness


def test_generator_alphabet_roundtrip():
    alphabet, mapping = generator_alphabet(MOTZ)
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
    alphabet, _ = generator_alphabet(COMP)
    trees = treelike_expressions(COMP, (0, 1, 0))
    assert parse_term("g00[g01[*,*],*]", alphabet) in trees
    assert parse_term("g01[*,g01[*,*]]", alphabet) in trees
    assert all(evaluate_tree(COMP, t) == (0, 1, 0) for t in trees)
    assert treelike_expressions(COMP, COMP.unit) == [LEAF]
    with pytest.raises(OracleBoundError):
        treelike_expressions(COMP, tuple([0] * 10), bound=6)


@pytest.mark.parametrize("op", [COMP, MOTZ, FCAT1])
def test_homogeneity_certified(op):
    """Every expression in a fiber has the degree the operad assigns."""
    alphabet, _ = generator_alphabet(op)
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


def test_phi_operad_dias_uv_raises():
    from opergraph.operads import phi_operad
    assert phi_operad(DIAS, (1, 0)) == 9
    with pytest.raises(NotDiagonalError) as err:
        phi_operad(DIAS, (1, 0), pair="uv")
    assert err.value.element == (1, 0)
    assert err.value.commutator.coeff((0, 1)) == 2


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
    alphabet, _ = generator_alphabet(op)
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
    hooks = graph.hook_series_up_to(6)
    for n in range(1, 8):
        assert graph.path_weight_sum(1, n) == math.factorial(n - 1)
        assert hooks.coeff(n) == math.factorial(n - 1)


def test_universe_equality_includes_the_type():
    """fcat:1 names both a one-letter alphabet and an operad; their cached
    graphs must not be confused."""
    free = TreeUniverse(Alphabet.parse("fcat:1"))
    assert free.name == FCAT1.name == "fcat:1"
    assert free != FCAT1 and FCAT1 != free

    def hooks(op):
        graph = prefix_graph(op)
        assert graph.universe is op
        return {op.render_elem(x): c for s in graph.hook_slices(3) for x, c in s.items()}

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
