from fractions import Fraction

import pytest

from opergraph import Alphabet, Series2, enumerate_trees

from series_oracle import interval_series_by_iteration, tree_series_by_iteration


def test_fixed_point_tree_counts_mixed():
    a2c3 = Alphabet.parse("a:2,c:3")
    series = tree_series_by_iteration(a2c3, 6)
    counts = [len(enumerate_trees(a2c3, d)) for d in range(7)]
    assert [series.get((0, d), 0) for d in range(7)] == counts == [1, 2, 10, 66, 498, 4066, 34970]
    # the q^0 row of the interval series solves the same equation
    interval = interval_series_by_iteration(a2c3, 6)
    assert {key: c for key, c in interval.items() if key[0] == 0} == series


def test_fractions_are_rejected():
    """Coefficients are ints only: nothing in the package divides."""
    with pytest.raises(TypeError, match=r"ints, got Fraction\(1, 2\) at q\^0 t\^1"):
        Series2({(0, 1): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Series2({(0, 0): Fraction(4, 2)})
    with pytest.raises(TypeError):
        Series2({(0, 0): 1, (0, 1): 2.0})
    assert Series2({(0, 0): 1, (0, 1): 2, (0, 2): 3}).t_coeff_list(2) == [1, 2, 3]


def test_eval_q():
    series = Series2({(0, 0): 1, (1, 1): 2, (2, 1): 1})
    assert series.eval_q(1).t_coeff_list(1) == [1, 3]
    assert series.eval_q(0).t_coeff_list(1) == [1, 0]


def test_render():
    series = Series2({(0, 0): 1, (0, 1): 1, (1, 1): 1,
                      (0, 2): 2, (1, 2): 2, (2, 2): 2})
    assert series.render() == "1 + (1 + q)t + 2(1 + q + q^2)t^2"
    assert Series2().render() == "0"
    assert Series2({(0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 5}).render() == "1 + t + 2t^2 + 5t^3"
