import pytest

from opergraph import Alphabet, Letter


def test_parse_compact():
    alphabet = Alphabet.parse("a:2,c:3,e:1")
    assert [str(x) for x in alphabet] == ["a:2", "c:3", "e:1"]
    assert alphabet.render() == "a:2,c:3,e:1"
    assert alphabet["c"].arity == 3


def test_parse_file_form():
    alphabet = Alphabet.parse("a 2\n# comment\nc 3\n\n")
    assert alphabet == Alphabet.parse("a:2,c:3")


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("A", 2)
    with pytest.raises(ValueError):
        Letter("a", 0)
    with pytest.raises(ValueError):
        Alphabet([Letter("a", 2), Letter("a", 3)])
    with pytest.raises(ValueError):
        Letter("#5", 5)


def test_gen_poly():
    assert Alphabet.parse("a:2").gen_poly().coeff(0, 2) == 1
    poly = Alphabet.parse("a:2,c:3").gen_poly()
    assert poly.t_coeff_list() == [0, 0, 1, 1]
    assert Alphabet(()).gen_poly().t_coeff_list() == [0]


def test_gen_poly_counts_letters_and_arities():
    # evaluation at 1 counts letters; the derivative at 1 sums arities
    alphabet = Alphabet.parse("e:1,a:2,b:2,c:3")
    coeffs = alphabet.gen_poly().t_coeff_list()
    assert sum(coeffs) == len(alphabet) == 4
    assert sum(k * c for k, c in enumerate(coeffs)) == 1 + 2 + 2 + 3


def test_max_arity():
    assert Alphabet.parse("a:2,c:3").max_arity() == 3
    assert Alphabet.parse("e:1").max_arity() == 1
    assert Alphabet(()).max_arity() == 0
