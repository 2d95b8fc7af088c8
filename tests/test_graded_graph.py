from functools import partial
from math import comb, factorial

import pytest

from opergraph import LEAF, Alphabet, Combination, corolla, enumerate_trees, parse_term
from opergraph.free_graphs import phi_free, prefix_graph, prefix_pair, twisted_graph
from opergraph import operads, tree
from opergraph.graded_graph import GradedGraph, GradedGraphPair
from opergraph.operads import TreeUniverse, get_operad


def test_up_adjoint_examples(a2):
    graph = prefix_graph(a2)
    assert graph.up_adjoint(corolla(a2["a"])) == \
        Combination.unit(graph.universe, LEAF)
    assert not graph.up_adjoint(LEAF)


def test_up_adjoint_outside_the_graph(a2, a2c3):
    """An element no edge reaches has an empty row, however often it is
    asked for, and the rows of its rank stay as they were."""
    graph = operads.prefix_graph(operads.TreeUniverse(a2))
    foreign = corolla(a2c3["c"])
    assert not graph.up_adjoint(foreign) and not graph.up_adjoint(foreign)
    assert list(graph._table_row(corolla(a2["a"]))) == [(LEAF, 1)]


def test_adjointness_exhaustive(a2):
    graph = prefix_graph(a2)
    for d in range(4):
        for x in enumerate_trees(a2, d):
            for y, w in graph.up(x).items():
                assert graph.up_adjoint(y).coeff(x) == w
    # and nothing extra: adjoint entries all come from up
    for d in range(1, 5):
        for y in enumerate_trees(a2, d):
            for x, w in graph.up_adjoint(y).items():
                assert graph.up(x).coeff(y) == w


def test_explicit_adjoints_match_generic(a2c3):
    for build in (prefix_graph, twisted_graph):
        graph = build(a2c3)
        for d in range(4):
            for t in enumerate_trees(a2c3, d):
                assert graph.star(t) == graph.up_adjoint(t)


# -- the one star accessor against up_adjoint ------------------------------------

STAR_UNIVERSES = ([(get_operad(sel), 5) for sel in ("as", "comp", "motz", "dias",
                                                   "fcat:0", "fcat:1", "fcat:2", "fcat:3")]
                  + [(operads.TreeUniverse(Alphabet.parse(text)), 4)
                     for text in ("a:2", "a:2,c:3", "e:1,c:3", "a:2,f:5")])


@pytest.mark.parametrize("universe,d", STAR_UNIVERSES, ids=lambda v: getattr(v, "name", None))
@pytest.mark.parametrize("build", [operads.prefix_graph, operads.twisted_graph],
                         ids=["prefix", "twisted"])
def test_star_rows_match_up_adjoint(build, universe, d):
    """Hooks and star(x) from the star rows equal those from the reverse-edge
    table, read through up_adjoint element by element."""
    graph = build(universe)
    expected = [{universe.unit: 1}]
    for rank in range(1, d + 1):
        expected.append({x: sum(w * expected[-1].get(p, 0)
                                for p, w in graph.up_adjoint(x).items())
                         for x in universe.elements_of_rank(rank)})
    assert list(graph.iter_hook_slices(d)) == expected
    for rank in range(d + 1):
        for x in universe.elements_of_rank(rank):
            assert graph.star(x) == graph.up_adjoint(x)


@pytest.mark.parametrize("universe,d", STAR_UNIVERSES, ids=lambda v: getattr(v, "name", None))
@pytest.mark.parametrize("build", [operads.prefix_graph, operads.twisted_graph],
                         ids=["prefix", "twisted"])
def test_star_rows_name_each_element_once(build, universe, d):
    """A star row, closed form or table, is (element, weight) pairs with
    positive int weights and no element twice."""
    graph = build(universe)
    for rank in range(d + 1):
        for x in universe.elements_of_rank(rank):
            row = list(graph._star(x))
            assert all(type(w) is int and w > 0 for _, w in row), x
            assert len({p for p, _ in row}) == len(row), x


def test_path_weight_sum_chain():
    graph = operads.prefix_graph(get_operad("as"))
    assert graph.path_weight_sum(1, 4) == 6  # weights 1 * 2 * 3
    assert graph.path_weight_sum(2, 2) == 1
    assert graph.path_weight_sum(4, 2) == 0


def test_path_weight_sum_free(a2):
    graph = prefix_graph(a2)
    total = sum(graph.path_weight_sum(LEAF, t) for t in enumerate_trees(a2, 3))
    assert total == 6
    assert graph.path_weight_sum(LEAF, LEAF) == 1


def test_hook_series_matches_path_weights(a2):
    graph = prefix_graph(a2)
    hooks = {x: h for s in graph.iter_hook_slices(4) for x, h in s.items()}
    assert hooks[LEAF] == 1
    for d in range(5):
        for t in enumerate_trees(a2, d):
            assert hooks[t] == graph.path_weight_sum(LEAF, t)
    assert hooks[parse_term("a[a[*,*],a[*,*]]", a2)] == 2


def test_initial_paths_series_small(a2):
    assert prefix_graph(a2).initial_paths_series(5).t_coeff_list(5) == \
        [1, 1, 2, 6, 24, 120]
    assert twisted_graph(a2).initial_paths_series(5).t_coeff_list(5) == \
        [1, 1, 2, 5, 14, 42]


def test_dias_hooks_in_canonical_order():
    dias = get_operad("dias")
    slices = operads.prefix_graph(dias).iter_hook_slices(4)
    assert [s[x] for s in slices for x in sorted(s, key=dias.sort_key)] == \
        [1, 1, 1, 3, 2, 3, 15, 9, 9, 15, 105, 60, 54, 60, 105]


TRACE_UNIVERSES = ([get_operad(sel) for sel in ("as", "dias", "comp", "motz",
                                                "fcat:0", "fcat:1", "fcat:2", "fcat:3")]
                   + [operads.TreeUniverse(Alphabet.parse(text))
                      for text in ("a:2", "c:3", "a:2,b:2", "a:2,c:3", "e:1,a:2,c:3")])


def test_initial_paths_series_is_the_hook_trace():
    """The recurrences, where a graph has one, and ``hook_trace``, whose top
    count comes from the hooks of rank d-1 and the out-degrees, both give
    the sums of the hook slices, for every d to 5."""
    for universe in TRACE_UNIVERSES:
        for build in (operads.prefix_graph, operads.twisted_graph):
            graph = build(universe)
            trace = [sum(s.values()) for s in graph.iter_hook_slices(5)]
            for d in range(6):
                assert graph.initial_paths_series(d).t_coeff_list(d) == trace[:d + 1], \
                    (graph.name, d)
                assert graph.hook_trace(d) == trace[:d + 1], (graph.name, d)


def _scaled_factorials(base: int, top: int) -> list[int]:
    return [base ** n * factorial(n) for n in range(top + 1)]


def _catalans(top: int) -> list[int]:
    return [comb(2 * n, n) // (n + 1) for n in range(top + 1)]


FREE_SERIES_TO_40 = {
    "a:2-u": _scaled_factorials(1, 40),
    "c:3-u": [factorial(2 * n) // (2 ** n * factorial(n)) for n in range(41)],  # (2n-1)!!
    "a:2,b:2-u": _scaled_factorials(2, 40),
    "a:2-v": _catalans(40),
    "a:2,b:2-v": [2 ** n * c for n, c in enumerate(_catalans(40))],
    "e:1-u": [1] * 41,
    "e:1-v": [1] * 41,
    "-u": [1] + [0] * 40,
    "-v": [1] + [0] * 40,
}


@pytest.mark.parametrize("case", FREE_SERIES_TO_40)
def test_free_path_series_to_degree_40(case):
    text, _, graph = case.rpartition("-")
    build = prefix_graph if graph == "u" else twisted_graph
    assert build(Alphabet.parse(text)).initial_paths_series(40).t_coeff_list(40) == \
        FREE_SERIES_TO_40[case]


LIFTED_SERIES_TO_20 = {
    "as": _scaled_factorials(1, 20),
    "comp": _scaled_factorials(2, 20),
    "dias": _scaled_factorials(2, 20),
    "fcat:1": _scaled_factorials(2, 20),
    "fcat:2": _scaled_factorials(3, 20),
}


@pytest.mark.parametrize("selector", [*LIFTED_SERIES_TO_20, "motz"])
def test_operad_u_series_is_the_free_series_of_its_generators(selector):
    """A U path of an operad lifts to one free path over its generators, so
    the two U series agree: motz has generators of arities 2 and 3."""
    got = operads.prefix_graph(get_operad(selector)).initial_paths_series(20).t_coeff_list(20)
    if selector == "motz":
        assert got == prefix_graph(Alphabet.parse("a:2,c:3")).initial_paths_series(20) \
            .t_coeff_list(20)
    else:
        assert got == LIFTED_SERIES_TO_20[selector]


@pytest.mark.parametrize("universe", TRACE_UNIVERSES, ids=lambda u: u.name)
def test_outdegrees_are_the_row_weight_sums(universe):
    for rank in range(5):
        for x in universe.elements_of_rank(rank):
            assert universe.up_outdegree(x) == sum(universe.up_row(x).values()), x
            assert universe.v_outdegree(x) == sum(universe.v_row(x).values()), x


A2C3_U = [1, 2, 10, 82, 938, 13778, 247210]

# (a fresh universe, the builder, the counts to rank 6, whether they sum hook
# slices): the free U and V graphs and every operad's U graph have a
# recurrence; an operad's V graph sums its hook slices below the top rank
SERIES_BUILD_CASES = {
    "a:2,c:3-u": (lambda: operads.TreeUniverse(Alphabet.parse("a:2,c:3")), operads.prefix_graph,
                  A2C3_U, False),
    "a:2,c:3-v": (lambda: operads.TreeUniverse(Alphabet.parse("a:2,c:3")), operads.twisted_graph,
                  [1, 2, 10, 70, 606, 6210, 73842], False),
    "motz-u": (operads.MotzOperad, operads.prefix_graph, A2C3_U, False),
    "motz-v": (operads.MotzOperad, operads.twisted_graph, [1, 2, 6, 26, 150, 1082, 9366], True),
    "as-u": (operads.AsOperad, operads.prefix_graph, _scaled_factorials(1, 6), False),
    "dias-u": (operads.DiasOperad, operads.prefix_graph, _scaled_factorials(2, 6), False),
    "comp-u": (operads.CompOperad, operads.prefix_graph, _scaled_factorials(2, 6), False),
    **{f"fcat:{m}-u": (partial(operads.FCatOperad, m), operads.prefix_graph,
                       _scaled_factorials(m + 1, 6), False) for m in range(4)},
}


@pytest.mark.parametrize("case", SERIES_BUILD_CASES)
def test_initial_paths_series_never_builds_the_top_rank(monkeypatch, case):
    """A graph with a recurrence builds no element of any rank and no tree,
    not even one it drops; a graph that sums hook slices builds none of the
    top rank."""
    make_universe, build, expected, sums_slices = SERIES_BUILD_CASES[case]
    universe = make_universe()
    top = len(expected) - 1
    barred = top if sums_slices else 0
    elements_of_rank = universe.elements_of_rank

    def below_the_barred(rank):
        if rank >= barred:
            raise AssertionError(f"rank {rank} was built")
        return elements_of_rank(rank)

    monkeypatch.setattr(universe, "elements_of_rank", below_the_barred)
    graph = build(universe)
    built = []
    enter = tree._enter

    def counting_enter(table, letter, kids):
        built.append(letter)
        return enter(table, letter, kids)

    monkeypatch.setattr(tree, "_enter", counting_enter)
    assert graph.initial_paths_series(top).t_coeff_list(top) == expected
    if not sums_slices:
        assert not built


def test_returning_hooks_free_pair_by_path_pairs(a2):
    pair = prefix_pair(a2)
    u_hooks = {x: h for s in pair.u.iter_hook_slices(3) for x, h in s.items()}
    v_hooks = {x: h for s in pair.v.iter_hook_slices(3) for x, h in s.items()}
    assert u_hooks[LEAF] * v_hooks[LEAF] == 1

    def count_paths(graph, target):
        # path enumeration by walking predecessors, deliberately unmemoized
        if target is LEAF:
            return 1
        return sum(w * count_paths(graph, p)
                   for p, w in graph.up_adjoint(target).items())

    for t in enumerate_trees(a2, 3):
        assert u_hooks[t] * v_hooks[t] == \
            count_paths(pair.u, t) * count_paths(pair.v, t)


def test_returning_hooks_on_the_chain_by_path_pairs():
    """On the chain, one element per rank, the returning series at rank n-1
    is the product of the U and V path counts to n."""
    op = get_operad("as")
    pair = operads.prefix_pair(op)
    returning = pair.returning_paths_series(6)

    def count_paths(graph, target, rank):
        # explicit multipath enumeration, no memo: the independent oracle
        if rank == 0:
            return 1 if target == op.unit else 0
        total = 0
        for below in op.elements_of_rank(rank - 1):
            weight = graph.up(below).coeff(target)
            if weight:
                total += weight * count_paths(graph, below, rank - 1)
        return total

    for n in range(1, 8):
        rank = n - 1
        assert returning.coeff(0, rank) == \
            count_paths(pair.u, n, rank) * count_paths(pair.v, n, rank)


@pytest.mark.parametrize("text,expected", [
    ("a:2", [1, 1, 2, 6, 24, 120]),  # n!
    ("a:2,b:2", [1, 2, 8, 48, 384, 3840]),  # 2^n n!
    ("e:1,a:2,c:3", [1, 3, 18, 198, 3456, 87048]),
])
def test_returning_paths_series(text, expected):
    """The returning series counts pairs of initial paths, one in U and one
    in V, ending at one tree: per degree, the sum of the product of the two
    closed-form hooks over the enumerated trees."""
    alphabet = Alphabet.parse(text)
    assert prefix_pair(alphabet).returning_paths_series(5).t_coeff_list(5) == expected
    free = TreeUniverse(alphabet)
    assert [sum(free.hook_u(t) * free.hook_v(t) for t in enumerate_trees(alphabet, d))
            for d in range(6)] == expected


RETURNING_PAIRS = {
    "as": (lambda: operads.prefix_pair(get_operad("as")), [1, 1, 2, 6, 24, 120, 720, 5040]),
    "dias": (lambda: operads.prefix_pair(get_operad("dias")), [1, 2, 11, 102, 1353, 23490]),
    "comp": (lambda: operads.prefix_pair(get_operad("comp")),
             [1, 2, 8, 48, 384, 3840, 46080]),
    "motz": (lambda: operads.prefix_pair(get_operad("motz")), [1, 2, 10, 94, 1446, 33186]),
    "fcat:1": (lambda: operads.prefix_pair(get_operad("fcat:1")), [1, 2, 8, 48, 384, 3840]),
    "fcat:2": (lambda: operads.prefix_pair(get_operad("fcat:2")), [1, 3, 18, 162, 1944]),
    "free-a:2,c:3": (lambda: prefix_pair(Alphabet.parse("a:2,c:3")),
                     [1, 2, 10, 90, 1266, 25650, 708810]),
    "free-empty": (lambda: prefix_pair(Alphabet.parse("")), [1, 0, 0, 0]),
}


@pytest.mark.parametrize("case", RETURNING_PAIRS)
def test_returning_paths_series_of_operad_and_free_pairs(case):
    make_pair, expected = RETURNING_PAIRS[case]
    top = len(expected) - 1
    assert make_pair().returning_paths_series(top).t_coeff_list(top) == expected


def test_duality_commutator_examples(a2):
    pair = prefix_pair(a2)
    assert pair.duality_commutator(LEAF) == \
        Combination.unit(pair.universe, LEAF, 1)

    dias = get_operad("dias")
    dias_pair = operads.prefix_pair(dias)
    assert dias_pair.duality_commutator((1, 0)) == \
        Combination(dias, {(1, 0): 3, (0, 1): 2})

    motz = get_operad("motz")
    motz_pair = operads.prefix_pair(motz)
    assert motz_pair.duality_commutator((0, 0)) == \
        Combination(motz, {(0, 0): 2})


def test_check_phi_diagonal_free(a2c3):
    report = prefix_pair(a2c3).check_phi_diagonal(
        lambda t: phi_free(t, a2c3), 4)
    assert report.ok and report.table is None
    assert report.checked == sum(len(enumerate_trees(a2c3, d)) for d in range(5))


def test_check_phi_diagonal_dias_self_dual():
    dias = get_operad("dias")
    report = operads.self_pair(dias).check_phi_diagonal(dias.phi, 4)
    assert report.ok


def test_check_phi_diagonal_dias_uv_fails():
    dias = get_operad("dias")
    pair = operads.prefix_pair(dias)
    report = pair.check_phi_diagonal(None, 3)
    assert not report.ok
    witness = report.witness
    assert witness.element == (1, 0)
    assert witness.commutator == Combination(dias, {(1, 0): 3, (0, 1): 2})
    assert witness.render() == "commutator at 10 is 2*01 + 3*10"
    # discovery collected the diagonal part seen before the failure
    assert report.table[(0,)] == 2
    assert summary(report) == reference_report(pair, None, 3)


# -- the slice-at-a-time check against its oracle, duality_commutator --------------

def reference_report(pair, phi, d):
    """(ok, checked, failure, table) built element by element from
    duality_commutator; failure is (element, commutator, expected)."""
    table = None if phi is not None else {}
    checked = 0
    for rank in range(d + 1):
        for x in pair.universe.elements_of_rank(rank):
            commutator = pair.duality_commutator(x)
            checked += 1
            if phi is not None:
                expected = Combination.unit(pair.universe, x, phi(x))
                if commutator != expected:
                    return False, checked, (x, commutator, expected), table
            elif commutator.support() - {x}:
                return False, checked, (x, commutator, None), table
            else:
                table[x] = commutator.coeff(x)
    return True, checked, None, table


def summary(report):
    failure = report.witness
    if failure is not None:
        failure = (failure.element, failure.commutator, failure.expected)
    return report.ok, report.checked, failure, report.table


OPERAD_PAIRS = [(sel, kind) for sel in ("as", "comp", "motz", "dias", "fcat:1", "fcat:2",
                                        "fcat:3")
                for kind in ("uv", "uu")]
FREE_PAIRS = [(text, kind) for text in ("a:2", "a:2,c:3", "e:1,c:3") for kind in ("uv", "uu")]


def operad_pair(selector, kind):
    op = get_operad(selector)
    return op, (operads.prefix_pair if kind == "uv" else operads.self_pair)(op)


@pytest.mark.parametrize("selector,kind", OPERAD_PAIRS)
def test_discovery_matches_the_oracle_on_operads(selector, kind):
    _, pair = operad_pair(selector, kind)
    report = pair.check_phi_diagonal(None, 4)
    assert report.table is not None
    assert summary(report) == reference_report(pair, None, 4)


@pytest.mark.parametrize("text,kind", FREE_PAIRS)
def test_discovery_matches_the_oracle_on_free_pairs(text, kind):
    alphabet = Alphabet.parse(text)
    pair = (operads.prefix_pair if kind == "uv" else operads.self_pair)(TreeUniverse(alphabet))
    report = pair.check_phi_diagonal(None, 4)
    assert summary(report) == reference_report(pair, None, 4)


@pytest.mark.parametrize("selector,kind", OPERAD_PAIRS)
def test_check_matches_the_oracle_on_operads(selector, kind):
    """With the operad's phi (on the pair it is not for, a failure) and with
    phi off by one at the last element of rank 3."""
    op, pair = operad_pair(selector, kind)
    target = op.elements_of_rank(3)[-1]
    for phi in (op.phi, lambda x: op.phi(x) + (x == target)):
        report = pair.check_phi_diagonal(phi, 4)
        assert report.table is None
        assert summary(report) == reference_report(pair, phi, 4)


@pytest.mark.parametrize("text,kind", FREE_PAIRS)
def test_check_matches_the_oracle_on_free_pairs(text, kind):
    alphabet = Alphabet.parse(text)
    pair = (operads.prefix_pair if kind == "uv" else operads.self_pair)(TreeUniverse(alphabet))
    target = enumerate_trees(alphabet, 3)[-1]
    for phi in (lambda t: phi_free(t, alphabet), lambda t: phi_free(t, alphabet) + (t is target)):
        report = pair.check_phi_diagonal(phi, 4)
        assert summary(report) == reference_report(pair, phi, 4)


def test_two_letter_self_pair_failure_matches_the_oracle(a2b2):
    pair = operads.self_pair(TreeUniverse(a2b2))
    report = pair.check_phi_diagonal(None, 2)
    assert not report.ok
    assert summary(report) == reference_report(pair, None, 2)


@pytest.mark.parametrize("selector,kind", [("fcat:2", "uv"), ("motz", "uv"), ("dias", "uu")])
def test_wrong_phi_failure_matches_the_oracle(selector, kind):
    op, pair = operad_pair(selector, kind)
    wrong = lambda x: op.phi(x) + 1
    report = pair.check_phi_diagonal(wrong, 4)
    assert report.table is None and report.checked == 1
    assert summary(report) == reference_report(pair, wrong, 4)
    # off by one only at the last element of rank 3: every earlier one passes
    target = op.elements_of_rank(3)[-1]
    late = lambda x: op.phi(x) + (x == target)
    report = pair.check_phi_diagonal(late, 4)
    assert report.checked == sum(len(op.elements_of_rank(r)) for r in range(4))
    assert summary(report) == reference_report(pair, late, 4)
    assert report.witness.expected == Combination.unit(op, target, op.phi(target) + 1)


def test_wrong_phi_on_a_free_pair_matches_the_oracle(a2c3):
    pair = prefix_pair(a2c3)
    wrong = lambda t: phi_free(t, a2c3) + 1
    report = pair.check_phi_diagonal(wrong, 3)
    assert summary(report) == reference_report(pair, wrong, 3)


def stream_order(pair, rank):
    """The elements of a rank in the order U's rank stream yields them."""
    below = {}
    for r in range(rank):
        below = dict(pair.u._rows(r, below))
    return [x for x, _ in pair.u._rows(rank, below)]


@pytest.mark.parametrize("selector,rank", [("fcat:3", 4), ("fcat:2", 5)])
def test_a_failure_out_of_stream_order_gives_the_canonical_witness(monkeypatch, selector,
                                                                   rank):
    """Where the rank stream is out of canonical order (a letter of 10 or
    more is written comma-separated, and ``,`` sorts before ``0``), two
    failing words of one rank, the stream's first and the canonical first,
    give the canonical witness, count and table: against phi, and in
    discovery mode with the U rows of both words doubled, in the stream and
    in ``_up``, which the canonical walk and the oracle read."""
    op, pair = operad_pair(selector, "uv")
    streamed = stream_order(pair, rank)
    first = op.elements_of_rank(rank)[0]
    assert "," in op.render_elem(first) and streamed.index(first) > 0
    targets = {streamed[0], first}
    phi = lambda x: op.phi(x) + (x in targets)
    report = pair.check_phi_diagonal(phi, rank)
    assert report.witness.element == first
    assert summary(report) == reference_report(pair, phi, rank)

    double = lambda x, row: {y: 2 * w for y, w in row.items()} if x in targets else row
    rows, up = pair.u._rows, pair.u._up
    monkeypatch.setattr(pair.u, "_rows", lambda rank, below: (
        (x, double(x, row)) for x, row in rows(rank, below)))
    monkeypatch.setattr(pair.u, "_up", lambda x: double(x, up(x)))
    report = pair.check_phi_diagonal(None, rank)
    assert report.witness.element == first
    assert summary(report) == reference_report(pair, None, rank)


def table_pair(op):
    """The operad's (U,V) pair with V reading its reverse-edge table: no
    parent map and no closed-form star map."""
    v = GradedGraph(op, op.v_row, outdegree=op.v_outdegree, name=f"table({op.name})")
    return GradedGraphPair(operads.prefix_graph(op), v)


@pytest.mark.parametrize("selector", ["as", "comp", "fcat:1", "fcat:2", "fcat:3"])
def test_the_parent_map_check_is_the_table_check(selector):
    """Where V is a tree, the check through its parent map reports what the
    check through the reverse-edge table reports: with the operad's phi,
    with phi off by one at the last element of rank 4, and in discovery
    mode."""
    op, pair = operad_pair(selector, "uv")
    assert pair.v._parent is not None
    target = op.elements_of_rank(4)[-1]
    late = lambda x: op.phi(x) + (x == target)
    oks = []
    for phi in (op.phi, late, None):
        report = pair.check_phi_diagonal(phi, 4)
        assert summary(report) == summary(table_pair(op).check_phi_diagonal(phi, 4))
        oks.append(report.ok)
    assert oks == [True, False, True]


@pytest.mark.parametrize("selector", ["comp", "fcat:1", "fcat:2", "fcat:3"])
def test_an_extra_u_edge_fails_the_parent_map_check(monkeypatch, selector):
    """One more U edge, out of the last word of rank 3 into a child of the
    first, puts that first word into V*U(x): the check through the parent
    map must sum V*U(x) over the row it is given, and it reports the
    canonical witness, against phi and in discovery mode."""
    op, pair = operad_pair(selector, "uv")
    first, x = op.elements_of_rank(3)[0], op.elements_of_rank(3)[-1]
    extra = first + (0,)
    grow = lambda y, row: {**row, extra: row.get(extra, 0) + 1} if y == x else row
    rows, up = pair.u._rows, pair.u._up
    monkeypatch.setattr(pair.u, "_rows", lambda rank, below: (
        (y, grow(y, row)) for y, row in rows(rank, below)))
    monkeypatch.setattr(pair.u, "_up", lambda y: grow(y, up(y)))
    for phi in (op.phi, None):
        report = pair.check_phi_diagonal(phi, 4)
        assert report.witness.element == x
        assert report.witness.commutator.coeff(first) != 0
        assert summary(report) == reference_report(pair, phi, 4)


@pytest.mark.parametrize("text", ["a:2", "a:2,c:3"])
def test_an_extra_u_edge_fails_the_tree_stream_check(monkeypatch, text):
    """One more U edge, out of the last tree of rank 3 into a new root above
    the first, puts that first tree into V*U(x): the check over the trees'
    rank stream reports the canonical witness, against phi and in discovery
    mode.  The self pair, which deletes where V contracts, reports what its
    oracle reports too: x on a:2, and its rank 1 failure on a:2,c:3."""
    op = TreeUniverse(Alphabet.parse(text))
    first, x = op.elements_of_rank(3)[0], op.elements_of_rank(3)[-1]
    extra = op.v_explicit(first)[0]
    grow = lambda y, row: {**row, extra: row.get(extra, 0) + 1} if y is x else row
    for build, phi in ((operads.prefix_pair, op.phi), (operads.prefix_pair, None),
                       (operads.self_pair, None)):
        pair = build(op)
        assert pair.u._rows == op.up_rows
        rows, up = pair.u._rows, pair.u._up
        monkeypatch.setattr(pair.u, "_rows", lambda rank, below: (
            (y, grow(y, row)) for y, row in rows(rank, below)))
        monkeypatch.setattr(pair.u, "_up", lambda y: grow(y, up(y)))
        report = pair.check_phi_diagonal(phi, 4)
        if build is operads.prefix_pair:
            assert report.witness.commutator.coeff(first) != 0
        assert (report.witness.element == x) is (build is operads.prefix_pair
                                                 or text == "a:2")
        assert summary(report) == reference_report(pair, phi, 4)


def test_structural_checks(a2c3):
    """Both free graphs to rank 3 are graded, simple and rooted: every edge
    goes up one rank with weight 1, and every hook is positive."""
    for build in (prefix_graph, twisted_graph):
        graph = build(a2c3)
        exported = graph.export_json(4)
        rank = {node["id"]: node["rank"] for node in exported["nodes"]}
        for edge in exported["edges"]:
            assert (rank[edge["dst"]], edge["w"]) == (rank[edge["src"]] + 1, 1), edge
        for slice_ in graph.iter_hook_slices(3):
            assert min(slice_.values()) > 0


def test_an_edgeless_graph_gives_the_a_corolla_hook_0(a2):
    graph = GradedGraph(operads.TreeUniverse(a2), lambda x: {}, name="no edges",
                        outdegree=lambda x: 0)
    unit_slice, first_slice = graph.iter_hook_slices(1)
    assert unit_slice == {LEAF: 1}
    assert first_slice == {corolla(a2["a"]): 0}


def test_dot_export(a2):
    graph = prefix_graph(a2)
    dot = graph.export_dot(2)
    assert dot == graph.export_dot(2)  # deterministic
    assert 'digraph "prefix(a:2)"' in dot
    assert '"*" -> "a[*,*]";' in dot
    assert dot.count("subgraph cluster_") == 3
    for d in range(3):
        for t in enumerate_trees(a2, d):
            assert f'"{t.term}";' in dot
    # the chain shows its weight labels, weight-1 edges stay bare
    chain_dot = operads.prefix_graph(get_operad("as")).export_dot(3)
    assert '"2" -> "3" [label="2"];' in chain_dot
    assert '"1" -> "2";' in chain_dot


def test_json_export(a2):
    payload = prefix_graph(a2).export_json(2)
    by_rank = {}
    for node in payload["nodes"]:
        by_rank[node["rank"]] = by_rank.get(node["rank"], 0) + 1
    assert by_rank == {0: 1, 1: 1, 2: 2}
    assert {"src": "*", "dst": "a[*,*]", "w": 1} in payload["edges"]
    assert all(e["w"] == 1 for e in payload["edges"])


def test_pair_requires_shared_universe(a2, a2c3):
    from opergraph.graded_graph import GradedGraphPair
    with pytest.raises(ValueError):
        GradedGraphPair(prefix_graph(a2), twisted_graph(a2c3))
