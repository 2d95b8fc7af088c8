import pytest
from hypothesis import given, strategies as st

from opergraph import Alphabet, Combination, TreeUniverse, enumerate_trees
from opergraph.operads import get_operad, prefix_graph, twisted_graph
from opergraph.poly import UniverseMismatchError

A2 = Alphabet.parse("a:2")
U = TreeUniverse(A2)
TREES = [t for d in range(4) for t in enumerate_trees(A2, d)]


def combo(mapping):
    return Combination(U, mapping)


combos = st.builds(
    combo,
    st.dictionaries(st.sampled_from(TREES), st.integers(-20, 20), max_size=5))


def test_add_cancels():
    x = TREES[1]
    assert not combo({x: 2}) + combo({x: -2})
    assert (combo({x: 2}) + combo({x: -2})).render() == "0"


def test_scale_and_negate():
    x, y = TREES[1], TREES[2]
    f = combo({x: 1, y: 1})
    assert -f == combo({x: -1, y: -1})
    assert -(-f) == f
    assert not f + (-f)


@given(combos, combos, combos)
def test_add_commutative_associative(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)


def test_constructor_drops_zeros_and_keeps_the_last_pair():
    x, y = TREES[1], TREES[2]
    source = {x: 0, y: 3}
    f = combo(source)
    assert len(f) == 1 and f.coeff(y) == 3 and x not in f
    source[y] = 5
    assert f.coeff(y) == 3
    assert combo([(x, 1), (y, 2), (x, 0)]) == combo({y: 2})
    assert combo([(x, 0), (x, 4)]) == combo({x: 4})
    assert not combo(())


def test_universe_mismatch():
    other = Combination(TreeUniverse(Alphabet.parse("b:2")), {})
    with pytest.raises(UniverseMismatchError):
        combo({TREES[0]: 1}) + other


def test_apply_linear_sums_scaled_images():
    leaf, x, y = TREES[0], TREES[1], TREES[2]
    f = combo({x: 2, y: -1})
    assert f.apply_linear(lambda t: combo({t: 1, leaf: 3})) == combo({x: 2, y: -1, leaf: 3})
    assert f.apply_linear(lambda t: combo({leaf: 1})) == combo({leaf: 1})
    assert f.apply_linear(lambda t: combo({leaf: 1 if t == x else 2})) == combo({})


def test_apply_linear_refuses_images_over_another_universe():
    other = TreeUniverse(Alphabet.parse("b:2"))
    with pytest.raises(UniverseMismatchError):
        combo({TREES[1]: 1}).apply_linear(lambda t: Combination(other, {}))


def test_hadamard_examples():
    x, y = TREES[1], TREES[2]
    f = combo({x: 1, y: 2})
    assert f.hadamard(combo({x: 3})) == combo({x: 3})
    assert f.hadamard(Combination.characteristic(U, f.support())) == f


@given(combos, combos)
def test_hadamard_support_is_intersection(f, g):
    assert f.hadamard(g).support() == f.support() & g.support()


def test_trace_of_characteristic_series():
    chars = Combination.characteristic(U, TREES)
    assert chars.trace().t_coeff_list() == [1, 1, 2, 5]
    assert combo({}).trace().t_coeff_list() == [0]


def test_trace_of_hook_series_gives_factorials():
    from opergraph.free_graphs import prefix_graph
    hooks = prefix_graph(A2).hook_series_up_to(7)
    assert hooks.trace().t_coeff_list(7) == [1, 1, 2, 6, 24, 120, 720, 5040]


def test_items_are_canonically_ordered():
    f = combo({t: 1 for t in TREES[:6]})
    keys = [x for x, _ in f.items()]
    assert keys == sorted(keys, key=U.sort_key)


def test_render_format():
    x, y = TREES[1], TREES[2]
    assert combo({x: 2, y: -1}).render() == f"2*{x.term} + -1*{y.term}"
    assert combo({x: 2}).to_json() == [[2, x.term]]


def test_returning_hooks_on_the_chain_by_path_pairs():
    """Hadamard square of the chain hooks counts pairs of initial paths."""
    op = get_operad("as")
    u, v = prefix_graph(op), twisted_graph(op)
    hooks_u = u.hook_series_up_to(5)
    hooks_v = v.hook_series_up_to(5)
    returning = hooks_u.hadamard(hooks_v)

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

    for n in range(1, 7):
        rank = n - 1
        assert returning.coeff(n) == \
            count_paths(u, n, rank) * count_paths(v, n, rank)
    # Hadamard square on the chain is the square of the hook
    assert hooks_u.hadamard(hooks_u).coeff(3) == hooks_u.coeff(3) ** 2
