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
