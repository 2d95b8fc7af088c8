"""Graded graphs: rank-indexed universes with an "up" operator.

A graph is specified by its universe (an operad: rank slices, unit), a row
map ``up`` sending each element to a plain dict successor -> weight one rank
higher, and optionally an explicit ``star`` row map for the adjoint.
Adjoints, path counting, hooks, exports and the duality check all walk rows;
``_star_rows`` is the one star accessor, and a ``Combination`` is built only
where a public method returns one.  The diagonal duality check runs one rank
slice at a time, with ``GradedGraphPair.duality_commutator`` as its
independent oracle.  The prefix and twisted graphs of every operad, trees
included, are built by the builders in ``operads``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .poly import Combination
from .series import Series2


class GradedGraph:
    def __init__(self, universe, up: Callable, *, name: str, star: Callable | None = None):
        self.universe = universe
        self.name = name
        self._up = up
        self._star = star
        self._reverse: dict[int, dict] = {}

    # -- the two operators ---------------------------------------------------

    def up(self, x) -> Combination:
        return Combination(self.universe, self._up(x))

    def _reverse_edges(self, rank: int) -> dict:
        """Predecessor table for elements of the given rank, built once from
        the full rank-1 slice (empty at rank 0).  Its rows are lists of
        (element, weight) pairs: most have one entry, which a list holds in
        less memory than a dict."""
        cached = self._reverse.get(rank)
        if cached is not None:
            return cached
        table: dict = {}
        if rank >= 1:
            for x in self.universe.elements_of_rank(rank - 1):
                for y, w in self._up(x).items():
                    table.setdefault(y, []).append((x, w))
        self._reverse[rank] = table
        return table

    def up_adjoint(self, x) -> Combination:
        """Adjoint of up, from the reverse-edge table of x's rank."""
        table = self._reverse_edges(self.universe.degree(x))
        return Combination(self.universe, table.get(x, ()))

    def _star_rows(self, rank: int) -> Callable:
        """x -> the (element, weight) pairs of star(x), for the elements x of
        one rank: the explicit row map when one is known, else a lookup in
        the reverse-edge table, fetched once for the whole slice."""
        if self._star is not None:
            star = self._star
            return lambda x: star(x).items()
        table = self._reverse_edges(rank)
        return lambda x: table.get(x, ())

    def star(self, x) -> Combination:
        """The adjoint, through the explicit row map when one is known."""
        return Combination(self.universe, self._star_rows(self.universe.degree(x))(x))

    def _edges(self, top: int) -> Iterator[tuple]:
        """(x, y, weight) for every edge out of ranks 0..top-1, slice by
        slice, each row in canonical order."""
        sort_key = self.universe.sort_key
        for rank in range(top):
            for x in self.universe.elements_of_rank(rank):
                for y, w in sorted(self._up(x).items(), key=lambda yw: sort_key(yw[0])):
                    yield x, y, w

    # -- paths and hooks ---------------------------------------------------------

    def path_weight_sum(self, x, y) -> int:
        """Sum over paths from x to y of the product of edge weights
        (the multipath count for natural graphs); 1 when x = y."""
        rx, ry = self.universe.degree(x), self.universe.degree(y)
        if rx > ry:
            return 0
        front = {x: 1}
        for _ in range(ry - rx):
            nxt: dict = {}
            for z, c in front.items():
                for w, weight in self._up(z).items():
                    nxt[w] = nxt.get(w, 0) + c * weight
            front = nxt
        return front.get(y, 0)

    def iter_hook_slices(self, d: int) -> Iterator[dict]:
        """Hook coefficients, one dict per rank 0..d.

        The recursion h(unit) = 1, h(x) = <star(x), h> walks each rank slice
        once and only ever needs the previous slice.
        """
        prev = {self.universe.unit: 1}
        yield prev
        for rank in range(1, d + 1):
            star = self._star_rows(rank)
            cur: dict = {}
            for x in self.universe.elements_of_rank(rank):
                total = 0
                for p, w in star(x):
                    total += w * prev.get(p, 0)
                cur[x] = total
            yield cur
            prev = cur

    def hook_slices(self, d: int) -> list[dict]:
        return list(self.iter_hook_slices(d))

    def hook_series_up_to(self, d: int) -> Combination:
        terms: dict = {}
        for slice_ in self.iter_hook_slices(d):
            terms.update(slice_)
        return Combination(self.universe, terms)

    def initial_paths_series(self, d: int) -> Series2:
        """Trace of the hook series: coefficient of t^r counts the initial
        multipaths of length r."""
        return Series2({(0, rank): sum(slice_.values())
                        for rank, slice_ in enumerate(self.iter_hook_slices(d))})

    # -- structural checks ----------------------------------------------------------

    def check_graded(self, d: int):
        degree = self.universe.degree
        for x, y, _ in self._edges(d + 1):
            if degree(y) != degree(x) + 1:
                return False, (x, y)
        return True, None

    def check_simple(self, d: int):
        for x, y, w in self._edges(d + 1):
            if w not in (0, 1):
                return False, (x, y, w)
        return True, None

    def check_rooted(self, d: int):
        """Every element of rank <= d is reachable from the unit."""
        for rank, slice_ in enumerate(self.iter_hook_slices(d)):
            for x in self.universe.elements_of_rank(rank):
                if slice_.get(x, 0) <= 0:
                    return False, x
        return True, None

    # -- exports ---------------------------------------------------------------------

    def export_dot(self, max_rank: int) -> str:
        render = self.universe.render_elem
        lines = [f'digraph "{self.name}" {{', "  node [shape=box];"]
        for rank in range(max_rank + 1):
            lines.append(f"  subgraph cluster_{rank} {{")
            lines.append(f'    label="rank {rank}"; rank=same;')
            for x in self.universe.elements_of_rank(rank):
                lines.append(f'    "{render(x)}";')
            lines.append("  }")
        for x, y, w in self._edges(max_rank):
            label = "" if w == 1 else f' [label="{w}"]'
            lines.append(f'  "{render(x)}" -> "{render(y)}"{label};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export_json(self, max_rank: int) -> dict:
        render = self.universe.render_elem
        nodes = []
        for rank in range(max_rank + 1):
            for x in self.universe.elements_of_rank(rank):
                nodes.append({"id": render(x), "rank": rank})
        edges = [{"src": render(x), "dst": render(y), "w": w}
                 for x, y, w in self._edges(max_rank)]
        return {"nodes": nodes, "edges": edges}


# -- pairs and duality ------------------------------------------------------------


@dataclass
class DualityFailure:
    element: object
    commutator: Combination
    expected: Combination | None = None

    def render(self, universe) -> str:
        msg = (f"commutator at {universe.render_elem(self.element)} "
               f"is {self.commutator.render()}")
        if self.expected is not None:
            msg += f", expected {self.expected.render()}"
        return msg


@dataclass
class DualityReport:
    ok: bool
    mode: str
    max_rank: int
    checked: int
    failures: list[DualityFailure] = field(default_factory=list)
    table: dict | None = None

    def witness(self) -> DualityFailure | None:
        return self.failures[0] if self.failures else None


@dataclass
class IteratedIdentityReport:
    ok: bool
    n: int
    checked: int
    failures: list = field(default_factory=list)


class GradedGraphPair:
    """Two graded graphs over one universe, sharing the unit."""

    def __init__(self, u: GradedGraph, v: GradedGraph):
        if u.universe != v.universe:
            raise ValueError("the two graphs must share their universe")
        self.u = u
        self.v = v
        self.universe = u.universe

    def returning_hook_series(self, d: int) -> Combination:
        return self.u.hook_series_up_to(d).hadamard(self.v.hook_series_up_to(d))

    def returning_paths_series(self, d: int) -> Series2:
        return self.returning_hook_series(d).trace()

    def duality_commutator(self, x) -> Combination:
        """(V* U - U V*)(x), exactly."""
        left = self.u.up(x).apply_linear(self.v.star)
        right = self.v.star(x).apply_linear(self.u.up)
        return left - right

    def check_phi_diagonal(self, phi: Callable | None, d: int) -> DualityReport:
        """Verify the commutator equals phi(x)*x for every x of rank <= d.

        With ``phi=None`` runs in discovery mode: solves for the diagonal
        coefficient at each element, stopping at the first element whose
        commutator is not a multiple of the element itself.

        The check runs one rank slice at a time.  For x of rank r it sums
        V*U(x) - UV*(x) into one plain dict, from the U row of x, the star
        lookups of ranks r and r+1 and the U rows of rank r-1, each computed
        once (the rows of rank r-1 are dropped when rank r is done); a
        ``Combination`` is built only for a failure.  ``duality_commutator``
        is its independent oracle.
        """
        mode = "check" if phi is not None else "discover"
        table: dict | None = None if phi is not None else {}
        up = self.u._up
        checked = 0
        below: dict = {}  # the U rows of rank r-1, by element
        star_here = self.v._star_rows(0)
        for rank in range(d + 1):
            star_above = self.v._star_rows(rank + 1)
            rows: dict = {}
            for x in self.universe.elements_of_rank(rank):
                row = up(x)
                if rank < d:  # the rows of the top rank would never be read
                    rows[x] = row
                acc: dict = {}
                for y, w in row.items():
                    for z, c in star_above(y):
                        acc[z] = acc.get(z, 0) + w * c
                for p, w in star_here(x):
                    for z, c in below[p].items():
                        acc[z] = acc.get(z, 0) - w * c
                checked += 1
                coeff = acc.pop(x, 0)
                diagonal = not any(acc.values())
                if phi is None:
                    if not diagonal:
                        acc[x] = coeff
                        return DualityReport(False, mode, d, checked, [DualityFailure(
                            x, Combination(self.universe, acc))], table)
                    table[x] = coeff
                    continue
                expected = phi(x)
                if not diagonal or coeff != expected:
                    acc[x] = coeff
                    return DualityReport(False, mode, d, checked, [DualityFailure(
                        x, Combination(self.universe, acc),
                        Combination.unit(self.universe, x, expected))])
            below, star_here = rows, star_above
        return DualityReport(True, mode, d, checked, [], table)

    def check_iterated_identity(self, phi: Callable, n: int,
                                sample: Iterable) -> IteratedIdentityReport:
        """Verify V* U^n = U^n V* + sum over k1+k2 = n-1 of U^k1 phi U^k2
        on every sample element."""
        failures = []
        checked = 0
        for x in sample:
            checked += 1
            start = Combination.unit(self.universe, x)
            up, star = self.u.up, self.v.star
            lhs = start
            for _ in range(n):
                lhs = lhs.apply_linear(up)
            lhs = lhs.apply_linear(star)

            rhs = start.apply_linear(star)
            for _ in range(n):
                rhs = rhs.apply_linear(up)
            for k2 in range(n):
                k1 = n - 1 - k2
                term = start
                for _ in range(k2):
                    term = term.apply_linear(up)
                term = term.apply_diagonal(phi)
                for _ in range(k1):
                    term = term.apply_linear(up)
                rhs = rhs + term
            if lhs != rhs:
                failures.append((x, lhs, rhs))
        return IteratedIdentityReport(not failures, n, checked, failures)
