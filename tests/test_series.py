import random
from fractions import Fraction

import pytest

from opergraph import Alphabet, Series2, enumerate_trees, fixed_point
from opergraph.series import NonContractionError


def test_polynomial_product():
    one_plus_t = Series2.from_t_coeffs([1, 1], 2)
    one_minus_t = Series2.from_t_coeffs([1, -1], 2)
    assert (one_plus_t * one_minus_t).t_coeff_list(2) == [1, 0, -1]


def test_substitute_polynomial_outer():
    square = Series2.monomial(1, 0, 2)          # x^2 as a polynomial in t
    inner = Series2.from_t_coeffs([0, 1, 1], 3)  # t + t^2
    assert square.subs_t(inner).t_coeff_list(3) == [0, 0, 1, 2]


def test_substitute_guard():
    truncated = Series2.from_t_coeffs([1, 1], 4)
    bad_inner = Series2.one(4)
    with pytest.raises(ValueError):
        truncated.subs_t(bad_inner)


def test_mul_associative_random():
    rng = random.Random(7)

    def sample():
        return Series2({(rng.randrange(3), rng.randrange(5)): rng.randrange(-4, 5)
                        for _ in range(6)}, 4)

    for _ in range(40):
        f, g, h = sample(), sample(), sample()
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_fixed_point_catalan():
    series = fixed_point(lambda s: Series2.one(4) + Series2.t(4) * s * s, 4)
    assert series.t_coeff_list(4) == [1, 1, 2, 5, 14]
    # oracle: direct enumeration of binary trees by internal nodes
    a2 = Alphabet.parse("a:2")
    assert [len(enumerate_trees(a2, d)) for d in range(5)] == series.t_coeff_list(4)


def test_fixed_point_tree_counts_mixed():
    a2c3 = Alphabet.parse("a:2,c:3")
    gen = a2c3.gen_poly()
    series = fixed_point(lambda s: Series2.one(6) + Series2.t(6) * gen.subs_t(s), 6)
    assert series.t_coeff_list(6) == \
        [len(enumerate_trees(a2c3, d)) for d in range(7)]


def test_fixed_point_detects_non_contraction():
    with pytest.raises(NonContractionError):
        fixed_point(lambda s: Series2.one(3) + s, 3)


def test_fixed_point_idempotence():
    gen = Alphabet.parse("a:2").gen_poly()

    def eq(s):
        return Series2.one(5) + Series2.t(5) * gen.subs_t(s)

    series = fixed_point(eq, 5)
    assert eq(series).truncate(5) == series


def test_fractions_are_rejected():
    """Coefficients are ints only: nothing in the package divides."""
    with pytest.raises(TypeError, match=r"ints, got Fraction\(1, 2\) at q\^0 t\^1"):
        Series2({(0, 1): Fraction(1, 2)})
    with pytest.raises(TypeError):
        Series2({(0, 0): Fraction(4, 2)})
    with pytest.raises(TypeError):
        Series2.from_t_coeffs([1, 2.0])
    assert Series2.from_t_coeffs([1, 2, 3]).t_coeff_list() == [1, 2, 3]


def test_eval_q():
    series = Series2({(0, 0): 1, (1, 1): 2, (2, 1): 1}, 1)
    assert series.eval_q(1).t_coeff_list(1) == [1, 3]
    assert series.eval_q(0).t_coeff_list(1) == [1, 0]


def test_render():
    series = Series2({(0, 0): 1, (0, 1): 1, (1, 1): 1,
                      (0, 2): 2, (1, 2): 2, (2, 2): 2})
    assert series.render() == "1 + (1 + q)t + 2(1 + q + q^2)t^2"
    assert Series2.zero().render() == "0"
    assert Series2.from_t_coeffs([1, 1, 2, 5]).render() == "1 + t + 2t^2 + 5t^3"
