import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from opergraph import (LEAF, Alphabet, Letter, Series2, compose_forest,
                       corolla, enumerate_trees, is_prefix, node, parse_term)
from opergraph.free_graphs import prefix_graph, up_star_free
from opergraph.tree_poset import (NotComparableError, difference_forest,
                                  interval, interval_count, interval_count_brute,
                                  interval_elements, interval_series,
                                  interval_shadow, join, load,
                                  meet, poset_leq, shadow,
                                  stringy_count)
from opergraph.tree import _INTERN

from oracles import is_stringy
from series_oracle import interval_series_by_iteration


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
            lower = [r for r in interval_elements(LEAF, s) if poset_leq(r, t)]
            assert glb in lower
            assert all(poset_leq(r, glb) for r in lower)

            lub = join(s, t)
            assert (lub is not None) == _unifiable(s, t)
            if lub is None:
                continue
            assert poset_leq(s, lub) and poset_leq(t, lub)
            for p in interval_elements(LEAF, lub):
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
        s = rng.choice(interval_elements(LEAF, t))
        assert compose_forest(s, difference_forest(s, t)) == t


def test_difference_forest_worked_example(eac):
    s = parse_term("c[a[*,a[*,*]],*,*]", eac)
    t = parse_term("c[a[c[*,*,*],a[*,e[*]]],*,a[c[*,*,*],e[*]]]", eac)
    assert difference_forest(s, t) == (
        parse_term("c[*,*,*]", eac), LEAF, parse_term("e[*]", eac), LEAF,
        parse_term("a[c[*,*,*],e[*]]", eac))


def test_shadow_examples(eac):
    t = parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac)
    assert shadow(t) == ((), (), ((), ()))
    assert shadow(corolla(eac["c"])) == ()
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
    assert load(()) == 1
    t = parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac)
    assert load(shadow(t)) == 20


def test_load_counts_prefixes(a2):
    root = Alphabet.parse("a:2,r:1")["r"]
    for d in range(1, 5):
        for t in enumerate_trees(a2, d):
            assert load(shadow(node(root, (t,)))) == len(interval_elements(LEAF, t))


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


def _shadow_count(s, t):
    """The count through the difference shadow, or the error it raises."""
    try:
        return load(interval_shadow(s, t))
    except NotComparableError as error:
        return str(error)


def _walk_count(s, t):
    try:
        return interval_count(s, t)
    except NotComparableError as error:
        return str(error)


def test_interval_count_matches_the_shadow_load(eac):
    """Every ordered pair of trees to degree 3 (27,556 pairs): the one-walk
    count against the load of the difference shadow, errors included."""
    trees = all_trees(eac, 3)
    assert len(trees) ** 2 == 27_556
    for t in trees:
        for s in trees:
            assert _walk_count(s, t) == _shadow_count(s, t)


def _random_tree(alphabet, degree, rng):
    """A random tree of the given degree: a random root letter over a
    uniform composition of degree - 1 into its arity."""
    if degree == 0:
        return LEAF
    letter = rng.choice(alphabet.letters)
    slots = degree - 1 + letter.arity - 1
    cuts = [-1] + sorted(rng.sample(range(slots), letter.arity - 1)) + [slots]
    return node(letter, [_random_tree(alphabet, cuts[k + 1] - cuts[k] - 1, rng)
                         for k in range(letter.arity)])


def _random_prefix(t, rng, keep):
    if t.is_leaf or rng.random() > keep:
        return LEAF
    return node(t.letter, [_random_prefix(c, rng, keep) for c in t.children])


def test_interval_count_is_the_number_of_elements(eac):
    """Seeded comparable pairs to degree 14, enumerated whenever the count
    is at most 256."""
    rng = random.Random(29)
    enumerated = 0
    for _ in range(600):
        t = _random_tree(eac, rng.randint(0, 14), rng)
        s = _random_prefix(t, rng, rng.random())
        count = interval_count(s, t)
        assert count == _shadow_count(s, t)
        if count <= 256:
            assert count == len(interval_elements(s, t))
            enumerated += 1
    assert enumerated >= 300


def _answer_query(alphabet, rng):
    """One seeded prefix-order query: three terms parsed, then their meet,
    join and interval."""
    t = _random_tree(alphabet, rng.randint(4, 14), rng)
    terms = [t.term] + [_random_prefix(t, rng, rng.random()).term for _ in range(2)]
    del t
    t, s, t2 = (parse_term(term, alphabet) for term in terms)
    count = interval(s, t)
    return meet(s, t2), join(s, t2), count, interval(s, t, "elements") if count <= 256 else None


def _query_answers(s, t, t2):
    """A query's answers as terms and plain values, so they outlive its trees."""
    high = join(t, t2)
    count = interval_count(s, t)
    return (meet(t, t2).term, high and high.term, count,
            [r.term for r in interval_elements(s, t)] if count <= 256 else None,
            poset_leq(s, t), poset_leq(t2, t), poset_leq(t, t2))


def test_letters_of_two_equal_alphabets_act_as_one():
    """Trees parsed from two separately parsed copies of one alphabet carry
    equal letters that are distinct objects; every query answers as it
    does over one alphabet."""
    rng = random.Random(43)
    one = Alphabet.parse("e:1,a:2,c:3")
    queries = []
    for _ in range(200):
        t = _random_tree(one, rng.randint(1, 10), rng)
        # a prefix of t with random trees grafted on: joins exist for most
        # pairs, not all
        prefix = _random_prefix(t, rng, 0.8)
        t2 = compose_forest(prefix, [_random_tree(one, rng.randint(0, 2), rng)
                                     for _ in range(prefix.arity)])
        queries.append([_random_prefix(t, rng, rng.random()).term, t.term, t2.term])
    del t, t2, prefix
    expected = [_query_answers(*(parse_term(term, one) for term in terms)) for terms in queries]
    first, second = Alphabet.parse("e:1,a:2,c:3"), Alphabet.parse("e:1,a:2,c:3")
    assert first["a"] is not second["a"] and first["a"] == second["a"]
    split = 0
    for terms, answers in zip(queries, expected):
        s, t2 = (parse_term(term, second) for term in (terms[0], terms[2]))
        t = parse_term(terms[1], first)
        split += t.letter is not t2.letter and t.letter == t2.letter
        assert _query_answers(s, t, t2) == answers, terms
    assert split >= 100


def test_same_named_letters_of_different_arity_never_unify():
    binary = parse_term("a[*,*]", Alphabet.parse("a:2"))
    ternary = parse_term("a[*,*,*]", Alphabet.parse("a:3"))
    assert meet(binary, ternary) is LEAF and meet(ternary, binary) is LEAF
    assert join(binary, ternary) is None and join(ternary, binary) is None
    assert not is_prefix(binary, ternary) and not is_prefix(ternary, binary)


def test_dropped_query_answers_leave_the_intern_table(eac):
    def interned():
        return sum(map(len, _INTERN.values()))

    baseline = interned()
    rng = random.Random(37)
    answers = [_answer_query(eac, rng) for _ in range(2000)]
    assert interned() > baseline
    del answers
    assert interned() == baseline


def test_interval_elements_are_the_prefixes_above_the_lower_bound(eac):
    trees = all_trees(eac, 3)
    for t in trees:
        below = interval_elements(LEAF, t)
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


def _canonical(trees):
    """The canonical order, spelled out: degree, then term."""
    return sorted(trees, key=lambda r: (r.degree, r.term))


def _check_term_order_by_construction(trees):
    for t in trees:
        below = interval_elements(LEAF, t)
        assert below == _canonical(below)
        for s in below:
            inside = interval(s, t, "elements")
            assert inside == _canonical(inside)


def test_intervals_come_out_in_canonical_order(eac):
    """interval_elements sorts by degree alone; the term order
    within a degree comes from how the lists are built.  Every comparable
    pair of trees to degree 4 (the lower bounds of t are its prefixes)."""
    _check_term_order_by_construction(all_trees(eac, 4))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "a0", "a_", "ab", "a9", "b", "b0", "b_c"]),
                          st.integers(1, 3)),
                min_size=1, max_size=3, unique_by=lambda letter: letter[0]))
def test_interval_order_holds_for_names_sharing_prefixes(letters):
    """Names that are prefixes of one another (a, a0, a_, ab) still leave
    term order to the construction."""
    alphabet = Alphabet(Letter(name, arity) for name, arity in letters)
    _check_term_order_by_construction(all_trees(alphabet, 3))


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
    assert interval_shadow(s1, t1) == interval_shadow(s2, t2) == (((), ()),)


def test_interval_isomorphism_invariance(a2, a2b2):
    # singleton intervals are all isomorphic
    x = parse_term("a[*,a[*,*]]", a2)
    y = parse_term("a[a[*,*],*]", a2)
    assert interval_shadow(x, x) == interval_shadow(y, y)
    # mirroring children is a poset isomorphism
    s, t = parse_term("a[*,*]", a2), parse_term("a[a[a[*,*],*],*]", a2)
    s2, t2 = parse_term("a[*,*]", a2), parse_term("a[*,a[*,a[*,*]]]", a2)
    assert interval_shadow(s, t) == interval_shadow(s2, t2)
    # different cardinalities are never isomorphic
    assert interval_shadow(LEAF, t) != interval_shadow(LEAF, parse_term("a[a[*,*],a[*,*]]", a2))


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
    assert [stringy_count(a2, d) for d in range(11)] == [
        sum(map(is_stringy, enumerate_trees(a2, d))) for d in range(11)]


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


@pytest.mark.parametrize("spec", ["a:2", "a:2,c:3", "e:1,a:2,c:3"])
def test_interval_series_matches_fixed_point(spec):
    alphabet = Alphabet.parse(spec)
    series = interval_series(alphabet, 20)
    assert series.coeffs == interval_series_by_iteration(alphabet, 20)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_interval_series_matches_fixed_point_on_random_alphabets(arities):
    alphabet = Alphabet(Letter(name, arity) for name, arity in zip("abc", arities))
    assert interval_series(alphabet, 6).coeffs == interval_series_by_iteration(alphabet, 6)


def test_interval_series_edge_orders(a2):
    assert interval_series(a2, 0) == Series2({(0, 0): 1})
    empty = Alphabet(())
    for order in range(8):
        assert interval_series(empty, order) == Series2({(0, 0): 1})


def _shadow_poset(s):
    """Parent-pointer encoding of the shadow's node poset (root omitted)."""
    nodes, edges = [], []

    def walk(shadow_node, parent):
        for child in shadow_node:
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
        for p in interval_elements(LEAF, r):
            if not p.is_leaf and is_stringy(p):
                from opergraph import compose_index
                expected.add(compose_index(bottom, i + 1, p))
    assert join_irreducible == expected
