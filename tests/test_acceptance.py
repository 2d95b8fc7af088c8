"""Acceptance criteria, one test per criterion, all exact-equality checks.

Each test prints a single pass line (visible with ``pytest -s``); the
``pytest -v`` listing carries the same per-criterion verdicts.  Stated
runtime budgets are asserted where given.
"""
import math
import time
from itertools import permutations

from opergraph import (LEAF, Alphabet, Combination, enumerate_trees,
                       is_prefix, parse_term)
from opergraph import free_graphs, operads
from opergraph.cli import verify_fixtures
from opergraph.free_graphs import phi_free, theta_row_sums
from opergraph.operads import TreeUniverse, get_operad
from opergraph.tree import nf
from opergraph.tree_poset import (interval, interval_series, join, load, meet,
                                  poset_leq, prefixes, shadow)

from oracles import linear_extensions

U_SEQUENCES = {
    "a:2": [1, 1, 2, 6, 24, 120, 720, 5040],
    "c:3": [1, 1, 3, 15, 105, 945, 10395, 135135],
    "a:2,b:2": [1, 2, 8, 48, 384, 3840, 46080, 645120],
    "a:2,c:3": [1, 2, 10, 82, 938, 13778, 247210, 5240338],
}

V_SEQUENCES = {
    "a:2": [1, 1, 2, 5, 14, 42, 132, 429],
    "c:3": [1, 1, 3, 13, 71, 465, 3563, 31429],
    "a:2,b:2": [1, 2, 8, 40, 224, 1344, 8448, 54912],
    "a:2,c:3": [1, 2, 10, 70, 606, 6210, 73842, 1006318],
}

STRINGY_SEQUENCES = {
    "a:2": [1, 1, 2, 4, 8, 16, 32, 64],
    "c:3": [1, 1, 3, 9, 27, 81, 243, 729],
    "a:2,b:2": [1, 2, 8, 32, 128, 512, 2048, 8192],
    "a:2,c:3": [1, 2, 10, 50, 250, 1250, 6250, 31250],
}


def _report(number, label, started, budget=None):
    elapsed = time.perf_counter() - started
    note = f" ({elapsed:.1f}s)" if budget else ""
    print(f"criterion {number:>2} {label}: PASS{note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_01_prefix_graph_path_sequences():
    started = time.perf_counter()
    for text, expected in U_SEQUENCES.items():
        graph = free_graphs.prefix_graph(Alphabet.parse(text))
        assert graph.initial_paths_series(7).t_coeff_list(7) == expected
        assert graph.hook_trace(7) == expected  # enumerates trees to degree 6
    _report(1, "prefix-graph path sequences", started, budget=10)


def test_criterion_02_twisted_graph_path_sequences():
    started = time.perf_counter()
    for text, expected in V_SEQUENCES.items():
        graph = free_graphs.twisted_graph(Alphabet.parse(text))
        assert graph.initial_paths_series(7).t_coeff_list(7) == expected
        assert graph.hook_trace(7) == expected  # enumerates trees to degree 6
    _report(2, "twisted-graph path sequences", started, budget=30)


def test_criterion_03_free_pair_diagonal_duality():
    started = time.perf_counter()
    for text, depth in (("a:2", 5), ("a:2,c:3", 4), ("e:1,c:3", 4)):
        alphabet = Alphabet.parse(text)
        report = free_graphs.prefix_pair(alphabet).check_phi_diagonal(
            lambda t: phi_free(t, alphabet), depth)
        assert report.ok, report.witness.render()
    _report(3, "free-pair diagonal duality", started, budget=60)


def test_criterion_04_singleton_self_duality():
    started = time.perf_counter()
    a2 = Alphabet.parse("a:2")
    free = TreeUniverse(a2)
    report = operads.self_pair(free).check_phi_diagonal(free.phi_self, 5)
    assert report.ok

    a2b2 = Alphabet.parse("a:2,b:2")
    failing = operads.self_pair(TreeUniverse(a2b2)).check_phi_diagonal(None, 2)
    assert not failing.ok
    witness = failing.witness
    assert witness.element == parse_term("a[*,*]", a2b2)
    assert witness.commutator == Combination(TreeUniverse(a2b2), {
        parse_term("a[*,*]", a2b2): 3, parse_term("b[*,*]", a2b2): -1})
    _report(4, "singleton self-duality and two-letter failure", started)


def test_criterion_05_hook_oracle_equivalence():
    started = time.perf_counter()
    for text, depth in (("a:2", 5), ("a:2,c:3", 4)):
        alphabet = Alphabet.parse(text)
        free = TreeUniverse(alphabet)
        u_hooks = {x: h for s in free_graphs.prefix_graph(alphabet).iter_hook_slices(depth)
                   for x, h in s.items()}
        v_hooks = {x: h for s in free_graphs.twisted_graph(alphabet).iter_hook_slices(depth)
                   for x, h in s.items()}
        for d in range(depth + 1):
            for t in enumerate_trees(alphabet, d):
                straight = free.hook_u(t)
                twisted = free.hook_v(t)
                assert straight == u_hooks[t] == linear_extensions(t)
                assert twisted == v_hooks[t] == linear_extensions(t, twisted=True)
    _report(5, "hook closed forms = graph hooks = linear extensions", started)


def test_criterion_06_theta_recurrence_matches_path_sequences():
    started = time.perf_counter()
    for text, expected in U_SEQUENCES.items():
        assert theta_row_sums(Alphabet.parse(text), 7) == expected
    _report(6, "arity-resolved recurrence reproduces criterion 1", started)


def test_criterion_07_lattice_properties():
    started = time.perf_counter()
    eac = Alphabet.parse("e:1,a:2,c:3")
    assert meet(parse_term("c[a[*,*],*,a[e[*],*]]", eac),
                parse_term("c[e[*],a[*,*],a[*,*]]", eac)) == \
        parse_term("c[*,*,a[*,*]]", eac)
    a2c3 = Alphabet.parse("a:2,c:3")
    assert join(parse_term("a[*,a[*,*]]", a2c3),
                parse_term("a[c[*,*,a[*,*]],*]", a2c3)) == \
        parse_term("a[c[*,*,a[*,*]],a[*,*]]", a2c3)

    for text in ("a:2", "a:2,c:3"):
        alphabet = Alphabet.parse(text)
        trees = [t for d in range(4) for t in enumerate_trees(alphabet, d)]
        for s in trees:
            for t in trees:
                glb = meet(s, t)
                lower = [r for r in prefixes(s) if poset_leq(r, t)]
                assert glb in lower and all(poset_leq(r, glb) for r in lower)
                lub = join(s, t)
                if lub is None:
                    continue
                assert poset_leq(s, lub) and poset_leq(t, lub)
                for p in prefixes(lub):
                    if p is not lub:
                        assert not (poset_leq(s, p) and poset_leq(t, p))

    import random
    top = parse_term("c[a[*,a[*,*]],c[*,*,*],a[*,*]]", a2c3)
    elements = interval(LEAF, top, "elements")
    rng = random.Random(23)
    for _ in range(100):
        r1, r2, r3 = (rng.choice(elements) for _ in range(3))
        assert meet(r1, join(r2, r3)) == join(meet(r1, r2), meet(r1, r3))
    _report(7, "meet/join are lattice operations", started)


def test_criterion_08_interval_machinery():
    started = time.perf_counter()
    a2 = Alphabet.parse("a:2")
    trees = [t for d in range(5) for t in enumerate_trees(a2, d)]
    for s in trees:
        for t in trees:
            if not poset_leq(s, t):
                continue
            # independent count: filter the full degree slices
            direct = sum(1 for d in range(s.degree, t.degree + 1)
                         for r in enumerate_trees(a2, d)
                         if poset_leq(s, r) and poset_leq(r, t))
            assert interval(s, t) == direct == len(interval(s, t, "elements"))

    eac = Alphabet.parse("e:1,a:2,c:3")
    assert load(shadow(parse_term("c[a[*,*],c[e[*],*,a[*,*]],a[*,*]]", eac))) == 20

    series = interval_series(a2, 7)
    rows = [[series.coeff(i, j) for i in range(j + 1)] for j in range(6)]
    assert [list(reversed(r)) for r in rows] == [
        [1], [1, 1], [2, 2, 2], [5, 6, 5, 5],
        [14, 20, 18, 14, 14], [42, 70, 70, 56, 42, 42]]
    assert series.eval_q(1).t_coeff_list(7) == [1, 2, 6, 21, 80, 322, 1348, 5814]
    _report(8, "interval counts, worked load, interval series", started)


def test_criterion_09_stringy_counts():
    started = time.perf_counter()
    from opergraph.free_graphs import up_star_free
    from opergraph.tree_poset import stringy_count
    for text, expected in STRINGY_SEQUENCES.items():
        alphabet = Alphabet.parse(text)
        assert [stringy_count(alphabet, d) for d in range(8)] == expected
        for d in range(1, 5):
            brute = sum(1 for t in enumerate_trees(alphabet, d)
                        if len(up_star_free(t, alphabet)) <= 1)
            assert brute == stringy_count(alphabet, d)
    _report(9, "stringy counts and co-irreducible oracle", started)


def test_criterion_10_operad_dualities():
    started = time.perf_counter()
    for selector in ("comp", "motz", "fcat:1", "fcat:2", "fcat:3"):
        op = get_operad(selector)
        report = operads.prefix_pair(op).check_phi_diagonal(op.phi, 5)
        assert report.ok, (selector, report.witness)
    dias = get_operad("dias")
    report = operads.self_pair(dias).check_phi_diagonal(dias.phi, 5)
    assert report.ok

    failing = operads.prefix_pair(dias).check_phi_diagonal(None, 3)
    assert not failing.ok
    witness = failing.witness
    assert witness.element == (1, 0)
    assert witness.commutator == Combination(dias, {(1, 0): 3, (0, 1): 2})
    _report(10, "operad dualities and the non-diagonal pair", started)


def test_criterion_11_operad_hook_fixtures():
    started = time.perf_counter()
    for pattern in ("dias-hook", "comp-hook", "motz-hook", "fcat1-hook", "fcat2-hook"):
        results = verify_fixtures(pattern)
        assert results, pattern
        for fx, ok, wanted, got in results:
            assert ok, (fx["id"], wanted, got)
    # comp hooks are the factorials of the degree, through degree 5
    comp = get_operad("comp")
    slices = operads.prefix_graph(comp).iter_hook_slices(5)
    for d, slice_ in enumerate(slices):
        assert all(c == math.factorial(d) for c in slice_.values())
    _report(11, "operad hook tables", started)


def test_criterion_12_twisted_oracle_and_homogeneity():
    started = time.perf_counter()
    from opergraph.operads import (evaluate_tree, treelike_expressions, twisted_graph,
                                   v_operad_oracle)
    for selector in ("comp", "motz", "fcat:1"):
        op = get_operad(selector)
        alphabet, _ = op.generator_alphabet
        for d in range(4):
            for t in enumerate_trees(alphabet, d):
                assert op.degree(evaluate_tree(op, t)) == d
        for d in range(4):
            for x in op.elements_of_rank(d):
                assert treelike_expressions(op, x)
                assert v_operad_oracle(op, x).support() == twisted_graph(op).up(x).support()
    _report(12, "treelike oracle matches the explicit twisted maps", started)


def test_criterion_13_chain_hooks_resolved_by_path_oracle():
    started = time.perf_counter()
    op = get_operad("as")
    graph = operads.prefix_graph(op)
    hooks = {x: h for s in graph.iter_hook_slices(7) for x, h in s.items()}
    for n in range(1, 9):
        oracle = graph.path_weight_sum(1, n)
        assert oracle == math.factorial(n - 1)
        assert hooks[n] == oracle
    # the bundled fixture pins the same convention; the filter is a substring,
    # so it also matches dias-hook
    results = {fx["id"]: ok for fx, ok, _, _ in verify_fixtures("as-hook")}
    assert results.get("as-hook") is True and all(results.values())
    _report(13, "chain hooks pinned to the path-weight oracle", started)


def test_all_bundled_fixtures_pass():
    results = verify_fixtures()
    failures = [(fx["id"], wanted, got) for fx, ok, wanted, got in results if not ok]
    assert not failures, failures
    print(f"fixtures: {len(results)}/{len(results)} PASS")
