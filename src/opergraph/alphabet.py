"""Graded alphabets: the generator sets that decorate syntax trees."""
from __future__ import annotations

import re
from dataclasses import dataclass

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True, order=True)
class Letter:
    """A decorating symbol with a positive arity."""

    name: str
    arity: int

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid letter name {self.name!r}")
        if self.arity < 1:
            raise ValueError(f"letter {self.name!r} needs arity >= 1, got {self.arity}")

    def __str__(self) -> str:
        return f"{self.name}:{self.arity}"


def _arity(text: str, piece: str, form: str) -> int:
    """The arity in one piece of alphabet text written as ``form``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected {form} with an integer arity, got {piece!r}") from None


class Alphabet:
    """Finite ordered collection of letters; declaration order is canonical."""

    # ``get(name)`` is the name table's own ``dict.get``: the letter of that
    # name, or None
    __slots__ = ("letters", "_by_name", "get")

    def __init__(self, letters):
        letters = tuple(letters)
        by_name: dict[str, Letter] = {}
        for letter in letters:
            if not isinstance(letter, Letter):
                raise TypeError(f"expected Letter, got {letter!r}")
            if letter.name in by_name:
                raise ValueError(f"duplicate letter name {letter.name!r}")
            by_name[letter.name] = letter
        self.letters = letters
        self._by_name = by_name
        self.get = by_name.get

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        """Parse the compact form ``a:2,c:3`` or a file body with one
        ``name arity`` pair per line (blank lines and # comments skipped)."""
        text = text.strip()
        if "\n" in text or (" " in text and ":" not in text):
            pairs = []
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"expected 'name arity', got {line!r}")
                pairs.append(Letter(fields[0], _arity(fields[1], line, "'name arity'")))
            return cls(pairs)
        if not text:
            return cls(())
        pairs = []
        for chunk in text.split(","):
            name, _, arity = chunk.strip().partition(":")
            if not arity:
                raise ValueError(f"expected name:arity, got {chunk!r}")
            pairs.append(Letter(name, _arity(arity, chunk, "name:arity")))
        return cls(pairs)

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: Letter) -> bool:
        return self._by_name.get(letter.name) == letter

    def __getitem__(self, name: str) -> Letter:
        return self._by_name[name]

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet.parse({self.render()!r})"

    def render(self) -> str:
        return ",".join(str(letter) for letter in self.letters)
