"""Exact polynomials in the markers q and t, as the program reads and prints
them.

The path and interval series are built elsewhere, each in closed form or by
recurrence, and handed over here as a coefficient map; a ``Series2`` only
stores it, answers coefficient queries, evaluates q at an integer and renders
the result.  Coefficients are Python ints, exact at any size; a series rejects
any other coefficient when it is built.  A series holds exactly the terms it
was given, and ``t_coeff_list`` pads with zeros up to any degree asked for.
Series in t alone are the case with no q marker.
"""
from __future__ import annotations

from math import gcd
from typing import Mapping


class Series2:
    """The polynomial sum c[i,j] * q^i * t^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] = ()):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in dict(coeffs).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial q^{i} t^{j}")
            if not isinstance(c, int):
                raise TypeError(f"series coefficients are ints, got {c!r} at q^{i} t^{j}")
            if c:
                clean[(i, j)] = c
        self.coeffs = clean

    # -- basic queries ------------------------------------------------------

    def coeff(self, q: int, t: int) -> int:
        return self.coeffs.get((q, t), 0)

    def t_coeff_list(self, up_to: int) -> list[int]:
        """Coefficients of a univariate series at t^0..t^up_to."""
        if any(i for (i, _) in self.coeffs):
            raise ValueError("series involves q; not univariate in t")
        return [self.coeffs.get((0, j), 0) for j in range(up_to + 1)]

    def eval_q(self, value: int) -> "Series2":
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self.coeffs.items():
            k = (0, j)
            out[k] = out.get(k, 0) + c * value ** i
        return Series2(out)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Series2) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Series2({self.render()!r})"

    def render(self) -> str:
        """Ascending in t; per t-degree the q-polynomial with its integer
        content factored out, e.g. ``1 + (1+q)t + 2(1+q+q^2)t^2``."""
        if not self.coeffs:
            return "0"
        rows: dict[int, dict[int, int]] = {}
        for (i, j), c in self.coeffs.items():
            rows.setdefault(j, {})[i] = c
        return " + ".join(_render_row(rows[j], j) for j in sorted(rows))

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
