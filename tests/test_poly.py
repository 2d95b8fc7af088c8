import pytest
from hypothesis import given, strategies as st

from opergraph import Alphabet, Combination, TreeUniverse, enumerate_trees
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


def test_items_are_canonically_ordered():
    f = combo({t: 1 for t in TREES[:6]})
    keys = [x for x, _ in f.items()]
    assert keys == sorted(keys, key=U.sort_key)


def test_render_format():
    x, y = TREES[1], TREES[2]
    assert combo({x: 2, y: -1}).render() == f"2*{x.term} + -1*{y.term}"
    assert combo({x: 2}).to_json() == [[2, x.term]]

