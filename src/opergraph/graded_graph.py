"""Graded graphs: rank-indexed universes with an "up" operator.

A graph is its universe (an operad: rank slices, unit), a row map ``up``
sending each element to a plain dict successor -> weight one rank higher,
and one star map for the adjoint, fixed when the graph is built: the
operad's closed form where it has one, else ``_table_row``, which reads a
lazily filled reverse-edge table and, through ``up_adjoint``, is the oracle
for every closed form.  A graph that is a tree may be given its parent map
instead, and its star map is then the parent of weight 1.  Paths, hooks,
exports and the duality check walk rows, and a ``Combination`` is built
only where a public method returns one.  The diagonal duality check runs
one rank at a time, over U's rank stream: the operad's closed form where it
has one (a word's up row from its prefix's row, a tree's from its
children's rows), else ``_slice_rows``, the canonical slice with each row
from ``up``.  A closed-form stream may come out of canonical order, so at
the first failure in a rank the check walks that rank again through
``_slice_rows``, and the witness is the canonical one.  Where V is a tree,
the check reads V through its parent map alone, and asks it only off the
unit.
``GradedGraphPair.duality_commutator`` is the check's independent oracle.  The
graphs of every operad, trees included, come from the builders in ``operads``.

A graph also carries its initial path counts, fixed when the graph is built
like the star map: the operad's integer recurrence where it has one, else
``hook_trace``, which sums the hook slices rank by rank and is the oracle for
every recurrence.  ``hook_trace`` reads the graph's out-degree map, the
weight sum of each up row: because star is the adjoint of up, the hooks of
rank d sum to the sum over x of rank d-1 of hook(x) * outdeg(x), so it never
builds rank d.  ``returning_paths_series`` zips the U and V hook streams a
slice at a time; it needs both hooks at rank d, so it builds rank d.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .poly import Combination
from .series import Series2


class GradedGraph:
    """The star map ``_star`` sends x to the (element, weight) pairs of the
    adjoint row, each element once with a positive int weight.  A star row
    is read once: a closed form may return an iterator.  ``outdegree`` sends
    x to the weight sum of its up row, in closed form.  ``paths`` sends d to
    the initial path counts of ranks 0..d, a list of ints.

    ``parent``, given for a graph that is a tree, sends each x but the unit
    to its one predecessor, of weight 1; it is never asked at the unit.
    With no ``star``, the star map is then ``_parent_row``, derived from it.

    The rank stream ``_rows`` sends (rank, below) to the pairs (x, up row
    of x), one for each x of the rank, where ``below`` maps every element
    of rank - 1 to its up row (empty at rank 0).  A closed form may build
    each row from the rows below and yield the rank in any order; the
    default, ``_slice_rows``, yields the canonical slice and is the oracle
    for every closed form."""

    def __init__(self, universe, up: Callable, *, name: str, outdegree: Callable,
                 star: Callable | None = None, paths: Callable | None = None,
                 rows: Callable | None = None, parent: Callable | None = None):
        self.universe = universe
        self.name = name
        self._up = up
        self._outdegree = outdegree
        self._reverse: dict = {}
        self._reverse_ranks: set[int] = set()
        self._parent = parent
        self._star = star or (self._parent_row if parent else self._table_row)
        self._paths = paths or self.hook_trace
        self._rows = rows or self._slice_rows

    # -- the two operators ---------------------------------------------------

    def up(self, x) -> Combination:
        return Combination(self.universe, self._up(x))

    def _table_row(self, x) -> Iterable[tuple]:
        """x's predecessors with their weights, from one reverse-edge table
        that gains a whole rank, from the full slice below, the first time an
        element of that rank is asked for.  Its rows are lists of pairs: most
        have one entry, which a list holds in less memory than a dict."""
        if x not in self._reverse and (rank := self.universe.degree(x)) not in self._reverse_ranks:
            self._reverse_ranks.add(rank)
            for p in self.universe.elements_of_rank(rank - 1) if rank else ():
                for y, w in self._up(p).items():
                    self._reverse.setdefault(y, []).append((p, w))
        return self._reverse.get(x, ())

    def _parent_row(self, x) -> tuple:
        """The star row of a tree-shaped graph: x's parent, of weight 1, and
        none at the unit, where the parent map is not asked."""
        return () if x == self.universe.unit else ((self._parent(x), 1),)

    def _slice_rows(self, rank: int, below: dict) -> Iterator[tuple]:
        """(x, up row of x) for each x of the rank slice, in canonical order;
        ``below`` is not read."""
        up = self._up
        for x in self.universe.elements_of_rank(rank):
            yield x, up(x)

    def up_adjoint(self, x) -> Combination:
        """Adjoint of up, from the reverse-edge table: the star-map oracle."""
        return Combination(self.universe, self._table_row(x))

    def star(self, x) -> Combination:
        """The adjoint, through the graph's star map."""
        return Combination(self.universe, self._star(x))

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
        (the multipath count for natural graphs); 1 when x = y.  The package
        calls it nowhere: it is the count the tests compare hooks with, and
        the one for V paths between two trees, which have no product formula."""
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
        star = self._star
        prev = {self.universe.unit: 1}
        yield prev
        for rank in range(1, d + 1):
            cur: dict = {}
            for x in self.universe.elements_of_rank(rank):
                total = 0
                for p, w in star(x):
                    total += w * prev.get(p, 0)
                cur[x] = total
            yield cur
            prev = cur

    def hook_trace(self, d: int) -> list[int]:
        """The hook slices summed by rank: the count at r is the number of
        initial multipaths of length r, for r = 0..d.

        Ranks 0..d-1 sum their hook slices.  Every path of length d ends in
        an edge out of rank d-1, so the count at d is the sum over x of rank
        d-1 of hook(x) * outdeg(x): rank d is never built.
        """
        counts = []
        for slice_ in self.iter_hook_slices(d - 1):
            counts.append(sum(slice_.values()))
        if d > 0:
            outdegree = self._outdegree
            counts.append(sum(h * outdegree(x) for x, h in slice_.items()))
        return counts

    def initial_paths_series(self, d: int) -> Series2:
        """Coefficient of t^r counts the initial multipaths of length r, for
        r = 0..d: from the graph's recurrence where it has one, else from
        ``hook_trace``."""
        return Series2({(0, r): c for r, c in enumerate(self._paths(d))})

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

    def render(self) -> str:
        render_elem = self.commutator.universe.render_elem
        msg = (f"commutator at {render_elem(self.element)} "
               f"is {self.commutator.render()}")
        if self.expected is not None:
            msg += f", expected {self.expected.render()}"
        return msg


@dataclass
class DualityReport:
    """``checked`` counts the elements compared, a failing one included;
    ``witness`` is the first failure, None when every element passed.  In
    discovery mode ``table`` holds the diagonal coefficient of each element
    that passed; a check against a given phi leaves it None."""
    checked: int
    witness: DualityFailure | None = None
    table: dict | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None


class GradedGraphPair:
    """Two graded graphs over one universe, sharing the unit."""

    def __init__(self, u: GradedGraph, v: GradedGraph):
        if u.universe != v.universe:
            raise ValueError("the two graphs must share their universe")
        self.u = u
        self.v = v
        self.universe = u.universe

    def returning_paths_series(self, d: int) -> Series2:
        """The t^r coefficient counts the pairs of initial paths, one in U and
        one in V, ending at one x of rank r: the sum of hookU(x) * hookV(x)."""
        terms: dict = {}
        slices = zip(self.u.iter_hook_slices(d), self.v.iter_hook_slices(d))
        for rank, (u_slice, v_slice) in enumerate(slices):
            terms[(0, rank)] = sum(h * v_slice[x] for x, h in u_slice.items())
        return Series2(terms)

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

        The check runs one rank at a time, over the (x, U row of x) pairs
        of U's rank stream, given the U rows of rank r-1 it holds
        (``GradedGraph._rows``).  For x of rank r it sums the two halves
        V*U(x) and UV*(x) into plain dicts, from the U row of x, V at x and
        at each y in that row, and the U rows of rank r-1, which are held
        (and dropped when rank r is done), so each U row is computed once.

        Where V is a tree (``GradedGraph._parent``), no star row is built:
        V*U(x) adds each U edge's weight at the parent of the edge's end,
        one parent per U edge, and UV*(x) is the held U row of x's parent,
        empty at rank 0, where no row is held and the unit's parent is not
        asked.  Elsewhere the rank r star rows are computed
        once each, and a rank r+1 star row once per U edge into it, so a y
        reached from several x is asked again each time; when V*(x) is one
        element of weight 1, UV*(x) is that element's U row itself.

        Weights are positive, so neither half holds a zero and the
        commutator is diagonal when the halves are equal dicts off x; the
        difference and a ``Combination`` are built only for a failure.

        A closed-form stream may yield a rank out of canonical order.  At
        the first failure in a rank, the check drops what it found in that
        rank and walks the rank again in canonical order (``_slice_rows``)
        over the same rows below, so the witness, ``checked`` and ``table``
        are those of a canonical walk.  ``duality_commutator`` is its
        independent oracle.
        """
        table: dict | None = None if phi is not None else {}
        u = self.u
        checked = 0
        below: dict = {}  # the U rows of rank r-1, by element
        for rank in range(d + 1):
            # the rows of the top rank would never be read
            rows, coeffs, failure = self._check_rank(u._rows(rank, below), below, phi, rank < d)
            if failure is not None and u._rows != u._slice_rows:
                rows, coeffs, failure = self._check_rank(
                    u._slice_rows(rank, below), below, phi, False)
            checked += len(coeffs)
            if table is not None:
                table.update(coeffs)
            if failure is not None:
                return DualityReport(checked + 1, failure, table)
            below = rows
        return DualityReport(checked, None, table)

    def _check_rank(self, stream: Iterable[tuple], below: dict, phi: Callable | None,
                    keep: bool) -> tuple[dict, dict, DualityFailure | None]:
        """Check each x of one rank that ``stream`` yields with its U row, up
        to the first failure.  Returns the rows (held when ``keep``), the
        diagonal coefficient of each x that passed, and the failure or None."""
        star = self.v._star
        parent = self.v._parent
        rows: dict = {}
        coeffs: dict = {}
        for x, row in stream:
            if keep:
                rows[x] = row
            vu: dict = {}
            if parent is not None:
                get = vu.get
                for y, w in row.items():
                    z = parent(y)
                    vu[z] = get(z, 0) + w
                # held, so never written to; nothing is below the unit
                uv = below[parent(x)] if below else {}
            else:
                for y, w in row.items():
                    for z, c in star(y):
                        vu[z] = vu.get(z, 0) + w * c
                pairs = tuple(star(x))
                if len(pairs) == 1 and pairs[0][1] == 1:
                    uv = below[pairs[0][0]]  # held, so never written to
                else:
                    uv = {}
                    for p, w in pairs:
                        for z, c in below[p].items():
                            uv[z] = uv.get(z, 0) + w * c
            # give vu uv's coefficient at x, so == compares them off x
            coeff = vu.pop(x, 0) - uv.get(x, 0)
            if x in uv:
                vu[x] = uv[x]
            expected = coeff if phi is None else phi(x)
            if vu == uv and coeff == expected:
                coeffs[x] = coeff
                continue
            return rows, coeffs, DualityFailure(
                x, self._difference(vu, uv, x, coeff),
                None if phi is None else Combination.unit(self.universe, x, expected))
        return rows, coeffs, None

    def _difference(self, vu: dict, uv: dict, x, coeff: int) -> Combination:
        """The commutator vu - uv, with ``coeff`` at x."""
        terms = dict(vu)
        for z, c in uv.items():
            terms[z] = terms.get(z, 0) - c
        terms[x] = coeff
        return Combination(self.universe, terms)
