"""Exact formal linear combinations over a graded universe of elements.

A universe is any ``Operad``, whose ``render_elem`` and ``sort_key``
combinations use.  They are the public face of graded graphs, which pass
plain rows (dicts element -> weight) and build a combination only to return
it.  Combinations over different universes refuse to mix.
"""
from __future__ import annotations


class UniverseMismatchError(ValueError):
    """Raised when combining combinations over different universes."""


class Combination:
    """Finite sum of elements with nonzero exact integer coefficients."""

    __slots__ = ("universe", "_terms")

    def __init__(self, universe, terms=()):
        """``terms`` is a mapping or (element, coefficient) pairs, of which
        the last for each element wins; zero coefficients are dropped."""
        pairs = terms.items() if isinstance(terms, dict) else dict(terms).items()
        self.universe = universe
        self._terms = {x: c for x, c in pairs if c}

    @classmethod
    def unit(cls, universe, x, c: int = 1) -> "Combination":
        return cls(universe, {x: c})

    # -- queries -----------------------------------------------------------

    def coeff(self, x) -> int:
        return self._terms.get(x, 0)

    def support(self):
        return set(self._terms)

    def items(self):
        """(element, coefficient) pairs in canonical element order."""
        return sorted(self._terms.items(), key=lambda kv: self.universe.sort_key(kv[0]))

    def terms(self):
        """Unordered (element, coefficient) view; cheaper than items()."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, x) -> bool:
        return x in self._terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Combination)
                and self.universe == other.universe
                and self._terms == other._terms)

    # -- linear structure -----------------------------------------------------

    def _check(self, other: "Combination"):
        if self.universe != other.universe:
            raise UniverseMismatchError(
                f"cannot mix {self.universe.name} with {other.universe.name}")

    def __add__(self, other: "Combination") -> "Combination":
        self._check(other)
        out = dict(self._terms)
        for x, c in other._terms.items():
            out[x] = out.get(x, 0) + c
        return Combination(self.universe, out)

    def __neg__(self) -> "Combination":
        return Combination(self.universe, {x: -c for x, c in self._terms.items()})

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    # -- linear maps ------------------------------------------------------------

    def apply_linear(self, fn) -> "Combination":
        """Image under a linear map given on elements (fn(x) is a Combination)."""
        out: dict = {}
        for x, c in self._terms.items():
            image = fn(x)
            self._check(image)
            for y, v in image._terms.items():
                out[y] = out.get(y, 0) + c * v
        return Combination(self.universe, out)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{self.universe.render_elem(x)}" for x, c in self.items())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<combination {self.render()}>"

    def to_json(self):
        return [[c, self.universe.render_elem(x)] for x, c in self.items()]
