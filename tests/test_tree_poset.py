import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from opergraph import (LEAF, Alphabet, Letter, Series2, compose_forest,
                       corolla, enumerate_trees, fixed_point, is_prefix, node,
                       parse_term)
from opergraph.free_graphs import prefix_graph, up_star_free
from opergraph.tree_poset import (NotComparableError, Shadow, difference_forest,
                                  interval, interval_count_brute,
                                  interval_isomorphic, interval_series,
                                  interval_shadow, is_stringy, join, load,
                                  meet, poset_leq, prefixes, shadow,
                                  stringy_count)


def all_trees(alphabet, max_degree):
    return [t for d in range(max_degree + 1) for t in enumerate_trees(alphabet, d)]


def test_poset_leq_examples(a2):
    assert poset_leq(LEAF, parse_term("a[a[*,*],*]", a2))
    assert not poset_leq(parse_term("a[*,a[*,*]]", a2), parse_term("a[a[*,*],*]", a2))


def test_poset_leq_is_reachability(a2):
    trees = all_trees(a2, 4)
    for s in trees:
        frontier = {s}
        reachable = {s}
        for _ in range(4 - s.degree):
            frontier = {y for x in frontier for y, _ in prefix_graph(a2).up(x).terms()}
            reachable |= frontier
        for t in trees:
            assert poset_leq(s, t) == (t in reachable)


def test_meet_worked_example(eac):
    left = parse_term("c[a[*,*],*,a[e[*],*]]", eac)
    right = parse_term("c[e[*],a[*,*],a[*,*]]", eac)
    assert meet(left, right) == parse_term("c[*,*,a[*,*]]", eac)
    assert meet(left, LEAF) is LEAF


def test_join_worked_example(a2c3):
    left = parse_term("a[*,a[*,*]]", a2c3)
    right = parse_term("a[c[*,*,a[*,*]],*]", a2c3)
    assert join(left, right) == parse_term("a[c[*,*,a[*,*]],a[*,*]]", a2c3)
    assert join(LEAF, right) is right
    assert join(parse_term("a[*,*]", a2c3), parse_term("c[*,*,*]", a2c3)) is None


def _unifiable(s, t):
    # independent oracle for the existence of an upper bound
    if s.is_leaf or t.is_leaf:
        return True
    return s.letter == t.letter and all(
        _unifiable(a, b) for a, b in zip(s.children, t.children))


@pytest.mark.parametrize("alphabet_text", ["a:2", "a:2,c:3"])
def test_meet_is_glb_and_join_is_lub_exhaustive(alphabet_text):
    """Complete lattice oracle on all pairs of degree <= 3.

    Lower bounds of {s, t} are prefixes of s, so the GLB check enumerates
    them outright.  For the join, any upper bound r yields the upper bound
    meet(join, r) <= join, hence join is least iff no strict prefix of join
    bounds {s, t} from above.
    """
    alphabet = Alphabet.parse(alphabet_text)
    trees = all_trees(alphabet, 3)
    for s in trees:
        for t in trees:
            glb = meet(s, t)
            lower = [r for r in prefixes(s) if poset_leq(r, t)]
            assert glb in lower
            assert all(poset_leq(r, glb) for r in lower)

            lub = join(s, t)
            assert (lub is not None) == _unifiable(s, t)
            if lub is None:
                continue
            assert poset_leq(s, lub) and poset_leq(t, lub)
            for p in prefixes(lub):
                if p is not lub:
                    assert not (poset_leq(s, p) and poset_leq(t, p))


def test_meet_semilattice_laws(a2):
    trees = all_trees(a2, 3)
    for x in trees:
        assert meet(x, x) == x
        for y in trees:
            assert meet(x, y) == meet(y, x)
    rng = random.Random(3)
    for _ in range(200):
        x, y, z = rng.choice(trees), rng.choice(trees), rng.choice(trees)
        assert meet(meet(x, y), z) == meet(x, meet(y, z))


def test_difference_forest(a2):
    t = parse_term("a[a[*,*],a[*,*]]", a2)
    assert difference_forest(LEAF, t) == (t,)
    assert difference_forest(t, t) == (LEAF,) * t.arity
    with pytest.raises(NotComparableError):
        difference_forest(parse_term("a[*,a[*,*]]", a2), parse_term("a[a[*,*],*]", a2))
    rng = random.Random(11)
    trees = all_trees(a2, 5)
    for _ in range(100):
        t = rng.choice(trees)
        s = rng.choice(prefixes(t))
        assert compose_forest(s, difference_forest(s, t)) == t


def test_difference_forest_worked_example(eac):
    s = parse_term("c[a[*,a[*,*]],*,*]", eac)
    t = parse_term("c[a[c[*,*,*],a[*,e[*]]],*,a[c[*,*,*],e[*]]]", eac)
    assert difference_forest(s, t) == (
        parse_term("c[*,*,*]", eac), LEAF, parse_term("e[*]", eac), LEAF,
        parse_term("a[c[*,*,*],e[*]]", eac))


def test_forest_codec(eac):
    from opergraph.tree_poset import parse_forest, render_forest
    forest = (parse_term("c[*,*,*]", eac), LEAF, parse_term("e[*]", eac))
    text = render_forest(forest)
    assert text == "c[*,*,*];*;e[*]"
    assert parse_forest(text, eac) == forest


def test_shadow_examples(eac):
    t = parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac)
    empty = Shadow()
    assert shadow(t) == Shadow([Shadow([empty, empty]), empty, empty])
    assert str(shadow(t)) == "{{{},{}},{},{}}"
    assert shadow(corolla(eac["c"])) == empty
    with pytest.raises(ValueError):
        shadow(LEAF)


def test_shadow_ignores_planarity_and_letters(eac):
    rng = random.Random(5)

    def shuffle(t):
        if t.is_leaf:
            return t
        kids = [shuffle(c) for c in t.children]
        rng.shuffle(kids)
        letters = [x for x in eac if x.arity == len(kids)]
        from opergraph import node
        return node(rng.choice(letters) if letters else t.letter, kids)

    for d in range(1, 5):
        for t in enumerate_trees(Alphabet.parse("a:2,b:2"), d):
            twisted = shuffle(t)
            if twisted.is_leaf:
                continue
            assert shadow(t) == shadow(twisted)


def test_load(eac):
    assert load(Shadow()) == 1
    t = parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac)
    assert load(shadow(t)) == 20


def test_load_counts_prefixes(a2):
    root = Alphabet.parse("a:2,r:1")["r"]
    for d in range(1, 5):
        for t in enumerate_trees(a2, d):
            assert load(shadow(node(root, (t,)))) == len(prefixes(t))


def test_interval_examples(a2):
    t = parse_term("a[a[*,*],*]", a2)
    assert interval(t, t) == 1
    elements = interval(LEAF, t, "elements")
    assert elements == [LEAF, parse_term("a[*,*]", a2), t]
    assert interval(LEAF, t) == 3
    with pytest.raises(NotComparableError):
        interval(parse_term("a[*,a[*,*]]", a2), t)


def test_interval_count_equals_elements(a2):
    trees = all_trees(a2, 4)
    for s in trees:
        for t in trees:
            if poset_leq(s, t):
                elements = interval(s, t, "elements")
                assert len(elements) == interval(s, t)
                assert len(set(elements)) == len(elements)
                assert all(poset_leq(s, r) and poset_leq(r, t) for r in elements)


def test_interval_elements_are_the_prefixes_above_the_lower_bound(eac):
    trees = all_trees(eac, 3)
    for t in trees:
        below = prefixes(t)
        for s in trees:
            if poset_leq(s, t):
                assert interval(s, t, "elements") == [r for r in below if poset_leq(s, r)]
                continue
            try:
                interval(s, t, "elements")
            except NotComparableError as error:
                assert str(error) == f"{s.term} is not a prefix of {t.term}"
            else:
                raise AssertionError(f"{s.term} <= {t.term} accepted")


def test_interval_decomposition_factorizes(eac):
    s = parse_term("c[a[*,a[*,*]],*,*]", eac)
    t = parse_term("c[a[c[*,*,*],a[*,e[*]]],*,a[c[*,*,*],e[*]]]", eac)
    factors = [interval(LEAF, r) for r in difference_forest(s, t)]
    expected = 1
    for f in factors:
        expected *= f
    assert interval(s, t) == expected == len(interval(s, t, "elements"))


def test_interval_isomorphism_worked_pair(eac):
    s1 = parse_term("c[*,*,e[*]]", eac)
    t1 = parse_term("c[a[e[*],a[*,*]],*,e[*]]", eac)
    s2 = parse_term("a[*,*]", eac)
    t2 = parse_term("a[*,a[e[*],c[*,*,*]]]", eac)
    assert interval_isomorphic(s1, t1, s2, t2)
    assert interval_shadow(s1, t1) == Shadow([Shadow([Shadow(), Shadow()])])


def test_interval_isomorphism_invariance(a2, a2b2):
    # singleton intervals are all isomorphic
    x = parse_term("a[*,a[*,*]]", a2)
    y = parse_term("a[a[*,*],*]", a2)
    assert interval_isomorphic(x, x, y, y)
    # mirroring children is a poset isomorphism
    s, t = parse_term("a[*,*]", a2), parse_term("a[a[a[*,*],*],*]", a2)
    s2, t2 = parse_term("a[*,*]", a2), parse_term("a[*,a[*,a[*,*]]]", a2)
    assert interval_isomorphic(s, t, s2, t2)
    # different cardinalities are never isomorphic
    assert not interval_isomorphic(LEAF, t, LEAF, parse_term("a[a[*,*],a[*,*]]", a2))


def test_distributivity_in_intervals(a2c3):
    top = parse_term("c[a[*,a[*,*]],c[*,*,*],a[*,*]]", a2c3)
    elements = interval(LEAF, top, "elements")
    rng = random.Random(17)
    for _ in range(100):
        r1, r2, r3 = (rng.choice(elements) for _ in range(3))
        lhs = meet(r1, join(r2, r3))
        rhs = join(meet(r1, r2), meet(r1, r3))
        assert lhs == rhs


def test_stringy_counts(a2, a2c3):
    assert [stringy_count(a2, d) for d in range(8)] == [1, 1, 2, 4, 8, 16, 32, 64]
    assert stringy_count(a2c3, 4) == 250


def test_stringy_trees_are_the_co_irreducibles(a2c3):
    for d in range(1, 5):
        slice_ = enumerate_trees(a2c3, d)
        stringy = [t for t in slice_ if is_stringy(t)]
        co_irreducible = [t for t in slice_ if len(up_star_free(t, a2c3)) <= 1]
        assert stringy == co_irreducible
        assert len(stringy) == stringy_count(a2c3, d)


def test_interval_series_against_brute_force(a2):
    series = interval_series(a2, 4)
    assert series.coeff(0, 0) == 1
    for b in range(5):
        for a in range(b + 1):
            assert series.coeff(a, b) == interval_count_brute(a2, a, b)


def test_interval_series_displayed_rows(a2):
    series = interval_series(a2, 5)
    rows = [[series.coeff(i, j) for i in range(j + 1)] for j in range(6)]
    assert rows == [
        [1],
        [1, 1],
        [2, 2, 2],
        [5, 5, 6, 5],
        [14, 14, 18, 20, 14],
        [42, 42, 56, 70, 70, 42],
    ]
    # the printed table lists each row by co-degree, and at q = 1 the
    # rows sum to the interval totals
    assert [list(reversed(r)) for r in rows[3:]] == [
        [5, 6, 5, 5], [14, 20, 18, 14, 14], [42, 70, 70, 56, 42, 42]]
    assert series.eval_q(1).t_coeff_list(5) == [1, 2, 6, 21, 80, 322]


def interval_series_by_iteration(alphabet, t_trunc):
    """The oracle: F = 1 + t*R(F - q*t*R(F)) + q*t*R(F) solved by applying the
    whole equation until it stops changing."""
    gen = alphabet.gen_poly()
    qt = Series2.q(t_trunc) * Series2.t(t_trunc)

    def equation(f):
        marked = qt * gen.subs_t(f)
        return Series2.one(t_trunc) + Series2.t(t_trunc) * gen.subs_t(f - marked) + marked

    return fixed_point(equation, t_trunc)


@pytest.mark.parametrize("spec", ["a:2", "a:2,c:3", "e:1,a:2,c:3"])
def test_interval_series_matches_fixed_point(spec):
    alphabet = Alphabet.parse(spec)
    series = interval_series(alphabet, 20)
    assert series.t_trunc == 20
    assert series == interval_series_by_iteration(alphabet, 20)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_interval_series_matches_fixed_point_on_random_alphabets(arities):
    alphabet = Alphabet(Letter(name, arity) for name, arity in zip("abc", arities))
    assert interval_series(alphabet, 6) == interval_series_by_iteration(alphabet, 6)


def test_interval_series_edge_orders(a2):
    assert interval_series(a2, 0) == Series2.one(0)
    empty = Alphabet(())
    for order in range(8):
        assert interval_series(empty, order) == Series2.one(order)


def _shadow_poset(s):
    """Parent-pointer encoding of the shadow's node poset (root omitted)."""
    nodes, edges = [], []

    def walk(shadow_node, parent):
        for child in shadow_node.children:
            idx = len(nodes)
            nodes.append(idx)
            if parent is not None:
                edges.append((parent, idx))
            walk(child, idx)

    walk(s, None)
    below = {n: {n} for n in nodes}
    for parent, child in reversed(edges):
        below[parent] |= below[child]
    leq = {(u, v) for u in nodes for v in below[u]}
    return nodes, leq


def _ideals(nodes, leq):
    out = []
    for mask in range(1 << len(nodes)):
        subset = {n for n in nodes if mask >> n & 1}
        if all(u in subset for v in subset for u in nodes if (u, v) in leq):
            out.append(frozenset(subset))
    return out


def test_shadow_ideals_give_the_interval_lattice(eac):
    t = parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac)
    s = shadow(t)
    nodes, leq = _shadow_poset(s)
    ideals = _ideals(nodes, leq)
    assert len(ideals) == load(s) == 20
    # join-irreducible ideals (covering exactly one ideal) are exactly the
    # nonempty saturated chains
    ideal_set = set(ideals)
    join_irreducible = []
    for ideal in ideals:
        covered = [other for other in ideals
                   if len(ideal - other) == 1 and other < ideal]
        covered = [o for o in covered if o in ideal_set]
        if len(covered) == 1:
            join_irreducible.append(ideal)
    chains = [i for i in ideals
              if i and all((u, v) in leq or (v, u) in leq for u in i for v in i)]
    assert sorted(map(sorted, join_irreducible)) == sorted(map(sorted, chains))


def test_interval_join_irreducibles_are_slot_grafted_stringy_prefixes(a2):
    r1 = parse_term("a[a[*,*],*]", a2)
    r2 = parse_term("a[*,*]", a2)
    forest = (r1, r2)
    root = Alphabet.parse("a:2,r:2")["r"]
    bottom = corolla(root)
    top = node(root, forest)
    elements = interval(bottom, top, "elements")
    inside = set(elements)
    join_irreducible = set()
    for x in elements:
        covered = [y for y, _ in up_star_free(x, a2).terms() if y in inside]
        if len(covered) == 1:
            join_irreducible.add(x)
    expected = set()
    for i, r in enumerate(forest):
        for p in prefixes(r):
            if not p.is_leaf and is_stringy(p):
                from opergraph import compose_index
                expected.add(compose_index(bottom, i + 1, p))
    assert join_irreducible == expected
