import pytest

from opergraph import LEAF, Alphabet, Combination, corolla, enumerate_trees, parse_term
from opergraph.free_graphs import (phi_free, prefix_graph, prefix_pair, self_pair,
                                   twisted_graph)
from opergraph import operads
from opergraph.operads import get_operad


def test_up_adjoint_examples(a2):
    graph = prefix_graph(a2)
    assert graph.up_adjoint(corolla(a2["a"])) == \
        Combination.unit(graph.universe, LEAF)
    assert not graph.up_adjoint(LEAF)


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
                                                   "fcat:1", "fcat:2", "fcat:3")]
                  + [(operads.TreeUniverse(Alphabet.parse(text)), 4)
                     for text in ("a:2", "a:2,c:3", "e:1,c:3")])


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
    assert graph.hook_slices(d) == expected
    for rank in range(d + 1):
        for x in universe.elements_of_rank(rank):
            assert graph.star(x) == graph.up_adjoint(x)


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
    hooks = graph.hook_series_up_to(4)
    assert hooks.coeff(LEAF) == 1
    for d in range(5):
        for t in enumerate_trees(a2, d):
            assert hooks.coeff(t) == graph.path_weight_sum(LEAF, t)
    assert hooks.coeff(parse_term("a[a[*,*],a[*,*]]", a2)) == 2


def test_initial_paths_series_small(a2):
    assert prefix_graph(a2).initial_paths_series(5).t_coeff_list(5) == \
        [1, 1, 2, 6, 24, 120]
    assert twisted_graph(a2).initial_paths_series(5).t_coeff_list(5) == \
        [1, 1, 2, 5, 14, 42]


def test_dias_hooks_in_canonical_order():
    dias = get_operad("dias")
    hooks = operads.prefix_graph(dias).hook_series_up_to(4)
    assert [c for _, c in hooks.items()] == \
        [1, 1, 1, 3, 2, 3, 15, 9, 9, 15, 105, 60, 54, 60, 105]


def test_initial_paths_series_is_the_hook_trace(a2c3):
    for build in (prefix_graph, twisted_graph):
        graph = build(a2c3)
        assert graph.initial_paths_series(4).t_coeff_list(4) == \
            graph.hook_series_up_to(4).trace().t_coeff_list(4)


def test_returning_hooks_free_pair_by_path_pairs(a2):
    pair = prefix_pair(a2)
    returning = pair.returning_hook_series(3)
    assert returning.coeff(LEAF) == 1

    def count_paths(graph, target):
        # path enumeration by walking predecessors, deliberately unmemoized
        if target is LEAF:
            return 1
        return sum(w * count_paths(graph, p)
                   for p, w in graph.up_adjoint(target).items())

    for t in enumerate_trees(a2, 3):
        assert returning.coeff(t) == \
            count_paths(pair.u, t) * count_paths(pair.v, t)


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
    assert report.ok and report.mode == "check"
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
    witness = report.witness()
    assert witness.element == (1, 0)
    assert witness.commutator == Combination(dias, {(1, 0): 3, (0, 1): 2})
    assert witness.render(dias) == "commutator at 10 is 2*01 + 3*10"
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
    failure = report.witness()
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
    assert report.mode == "discover"
    assert summary(report) == reference_report(pair, None, 4)


@pytest.mark.parametrize("text,kind", FREE_PAIRS)
def test_discovery_matches_the_oracle_on_free_pairs(text, kind):
    alphabet = Alphabet.parse(text)
    pair = (prefix_pair if kind == "uv" else self_pair)(alphabet)
    report = pair.check_phi_diagonal(None, 4)
    assert summary(report) == reference_report(pair, None, 4)


def test_two_letter_self_pair_failure_matches_the_oracle(a2b2):
    pair = self_pair(a2b2)
    report = pair.check_phi_diagonal(None, 2)
    assert not report.ok
    assert summary(report) == reference_report(pair, None, 2)


@pytest.mark.parametrize("selector,kind", [("fcat:2", "uv"), ("motz", "uv"), ("dias", "uu")])
def test_wrong_phi_failure_matches_the_oracle(selector, kind):
    op, pair = operad_pair(selector, kind)
    wrong = lambda x: op.phi(x) + 1
    report = pair.check_phi_diagonal(wrong, 4)
    assert report.mode == "check" and report.checked == 1
    assert summary(report) == reference_report(pair, wrong, 4)
    # off by one only at the last element of rank 3: every earlier one passes
    target = op.elements_of_rank(3)[-1]
    late = lambda x: op.phi(x) + (x == target)
    report = pair.check_phi_diagonal(late, 4)
    assert report.checked == sum(len(op.elements_of_rank(r)) for r in range(4))
    assert summary(report) == reference_report(pair, late, 4)
    assert report.witness().expected == Combination.unit(op, target, op.phi(target) + 1)


def test_wrong_phi_on_a_free_pair_matches_the_oracle(a2c3):
    pair = prefix_pair(a2c3)
    wrong = lambda t: phi_free(t, a2c3) + 1
    report = pair.check_phi_diagonal(wrong, 3)
    assert summary(report) == reference_report(pair, wrong, 3)


def test_check_iterated_identity(a2):
    pair = prefix_pair(a2)
    phi = lambda t: phi_free(t, a2)
    sample = [t for d in range(3) for t in enumerate_trees(a2, d)]
    assert pair.check_iterated_identity(phi, 0, sample).ok
    assert pair.check_iterated_identity(phi, 2, sample).ok

    comp = get_operad("comp")
    comp_pair = operads.prefix_pair(comp)
    elements = [x for d in range(3) for x in comp.elements_of_rank(d)]
    report = comp_pair.check_iterated_identity(lambda x: 2, 3, elements)
    assert report.ok and report.checked == len(elements)


def test_structural_checks(a2c3):
    for build in (prefix_graph, twisted_graph):
        graph = build(a2c3)
        ok, witness = graph.check_graded(3)
        assert ok, witness
        ok, witness = graph.check_simple(3)
        assert ok, witness
        ok, witness = graph.check_rooted(3)
        assert ok, witness


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
