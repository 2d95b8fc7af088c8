"""Exact truncated power series in the markers q and t.

Coefficients are Python ints, exact at any size; a series rejects any other
coefficient when it is built.  A series either carries a truncation order in t
(``t_trunc``) or is an exact polynomial (``t_trunc is None``).  Univariate
polynomials/series in t are the special case with no q marker.
"""
from __future__ import annotations

from math import gcd
from typing import Callable, Mapping


class NonContractionError(RuntimeError):
    """Fixed-point iteration failed to stabilize at the requested order."""


class Series2:
    """Bivariate series sum c[i,j] * q^i * t^j, truncated in t."""

    __slots__ = ("coeffs", "t_trunc")

    def __init__(self, coeffs: Mapping[tuple[int, int], int] = (), t_trunc: int | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in dict(coeffs).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial q^{i} t^{j}")
            if t_trunc is not None and j > t_trunc:
                continue
            if not isinstance(c, int):
                raise TypeError(f"series coefficients are ints, got {c!r} at q^{i} t^{j}")
            if c:
                clean[(i, j)] = c
        self.coeffs = clean
        self.t_trunc = t_trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, t_trunc: int | None = None) -> "Series2":
        return cls({}, t_trunc)

    @classmethod
    def one(cls, t_trunc: int | None = None) -> "Series2":
        return cls({(0, 0): 1}, t_trunc)

    @classmethod
    def monomial(cls, c: int = 1, q: int = 0, t: int = 0, t_trunc: int | None = None) -> "Series2":
        return cls({(q, t): c}, t_trunc)

    @classmethod
    def t(cls, t_trunc: int | None = None) -> "Series2":
        return cls.monomial(1, 0, 1, t_trunc)

    @classmethod
    def q(cls, t_trunc: int | None = None) -> "Series2":
        return cls.monomial(1, 1, 0, t_trunc)

    @classmethod
    def from_t_coeffs(cls, cs, t_trunc: int | None = None) -> "Series2":
        return cls({(0, j): c for j, c in enumerate(cs)}, t_trunc)

    # -- basic queries ------------------------------------------------------

    def coeff(self, q: int, t: int) -> int:
        return self.coeffs.get((q, t), 0)

    def t_coeff(self, j: int) -> dict[int, int]:
        """The coefficient of t^j as a map q-exponent -> coefficient."""
        return {i: c for (i, jj), c in self.coeffs.items() if jj == j}

    def max_t_degree(self) -> int:
        return max((j for (_, j) in self.coeffs), default=0)

    def t_coeff_list(self, up_to: int | None = None) -> list[int]:
        """Coefficient list of a univariate series, ascending t-degree."""
        if any(i for (i, _) in self.coeffs):
            raise ValueError("series involves q; not univariate in t")
        top = self.max_t_degree() if up_to is None else up_to
        return [self.coeffs.get((0, j), 0) for j in range(top + 1)]

    # -- arithmetic ---------------------------------------------------------

    def _join_trunc(self, other: "Series2") -> int | None:
        a, b = self.t_trunc, other.t_trunc
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "Series2") -> "Series2":
        trunc = self._join_trunc(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return Series2(out, trunc)

    def __neg__(self) -> "Series2":
        return Series2({k: -c for k, c in self.coeffs.items()}, self.t_trunc)

    def __sub__(self, other: "Series2") -> "Series2":
        return self + (-other)

    def scale(self, c: int) -> "Series2":
        return Series2({k: v * c for k, v in self.coeffs.items()}, self.t_trunc)

    def __mul__(self, other: "Series2") -> "Series2":
        trunc = self._join_trunc(other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                j = j1 + j2
                if trunc is not None and j > trunc:
                    continue
                k = (i1 + i2, j)
                out[k] = out.get(k, 0) + c1 * c2
        return Series2(out, trunc)

    def truncate(self, t_trunc: int) -> "Series2":
        return Series2(self.coeffs, t_trunc)

    def subs_t(self, inner: "Series2") -> "Series2":
        """Substitute ``inner`` for the marker t (self is the outer series).

        Legal when self is an exact polynomial, or when inner has zero
        constant term (so the substitution gains t-valuation).
        """
        if self.t_trunc is not None and inner.coeff(0, 0) != 0:
            raise ValueError("substitution into a truncated series needs a "
                             "zero constant term in the inner series")
        by_j: dict[int, dict[int, int]] = {}
        for (i, j), c in self.coeffs.items():
            by_j.setdefault(j, {})[i] = c
        trunc = self._join_trunc(inner)
        result = Series2.zero(trunc)
        power = Series2.one(trunc)
        for j in range(max(by_j, default=0) + 1):
            if j:
                power = power * inner
            row = by_j.get(j)
            if row:
                qpoly = Series2({(i, 0): c for i, c in row.items()}, trunc)
                result = result + qpoly * power
        return result

    def eval_q(self, value: int) -> "Series2":
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self.coeffs.items():
            k = (0, j)
            out[k] = out.get(k, 0) + c * value ** i
        return Series2(out, self.t_trunc)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series2)
                and self.coeffs == other.coeffs
                and self.t_trunc == other.t_trunc)

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.t_trunc))

    def __repr__(self) -> str:
        return f"Series2({self.render()!r}, t_trunc={self.t_trunc})"

    def render(self) -> str:
        """Ascending in t; per t-degree the q-polynomial with its integer
        content factored out, e.g. ``1 + (1+q)t + 2(1+q+q^2)t^2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(self.max_t_degree() + 1):
            row = self.t_coeff(j)
            if not row:
                continue
            parts.append(_render_row(row, j))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _render_qpoly(row: dict[int, int]) -> str:
    bits = []
    for i in sorted(row):
        c = row[i]
        if i == 0:
            bits.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            bits.append(q if c == 1 else f"{c}{q}")
    return " + ".join(bits).replace("+ -", "- ")


def _render_row(row: dict[int, int], j: int) -> str:
    tpow = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
    if list(row) == [0]:
        c = row[0]
        if j == 0:
            return str(c)
        return tpow if c == 1 else f"{c}{tpow}"
    content = 0
    for c in row.values():
        content = gcd(content, abs(c))
    if content > 1:
        inner = _render_qpoly({i: c // content for i, c in row.items()})
        return f"{content}({inner}){tpow}"
    return f"({_render_qpoly(row)}){tpow}"


def fixed_point(func: Callable[[Series2], Series2], t_trunc: int) -> Series2:
    """Solve S = func(S) mod t^(t_trunc+1) by iteration.

    Starts from func(0) and applies func exactly t_trunc + 1 more times;
    equations that gain one t-degree of accuracy per application (every
    functional equation used here does) are then exact to the truncation.
    A final re-substitution guards against non-contracting equations.
    """
    s = func(Series2.zero(t_trunc)).truncate(t_trunc)
    for _ in range(t_trunc + 1):
        s = func(s).truncate(t_trunc)
    again = func(s).truncate(t_trunc)
    if again != s:
        raise NonContractionError(
            f"iteration did not stabilize at t-order {t_trunc}: "
            f"{s.render()} vs {again.render()}")
    return s
