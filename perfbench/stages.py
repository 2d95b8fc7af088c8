"""The traced form of each workload: the same operations and answers, with
each one split into staged calls to the program's layers and a span around
every stage.

A layer's metric is the self time of its spans (see ``spans.Tracer``).  A
stage whose program function is gone marks its metrics absent and the run
goes on; the operations' answers still come from the README entry points
where a stage cannot run.
"""
from __future__ import annotations

import workloads
from spans import Missing, Tracer
from workloads import Op, lookup

# per-layer metric -> the span or call-group name whose self time it reports
LAYER_SPANS = {
    "tree.enumerate_s": "tree.enumerate",
    "tree.parse_s": "tree.parse",
    "free_graphs.deletions_s": "free_graphs.deletions",
    "free_graphs.contractions_s": "free_graphs.contractions",
    "free_graphs.up_s": "free_graphs.up",
    "graded_graph.hook_s": "graded_graph.hook",
    "graded_graph.star_s": "graded_graph.star",
    "operads.slice_s": "operads.slice",
    "operads.up_s": "operads.up",
    "poly.self_s": "poly.commutator",
    "series.interval_series_s": "series.interval_series",
    "tree_poset.meet_s": "tree_poset.meet",
    "tree_poset.join_s": "tree_poset.join",
    "tree_poset.interval_count_s": "tree_poset.interval_count",
    "tree_poset.interval_elements_s": "tree_poset.interval_elements",
}
COUNTS = ("tree.trees", "tree.parsed", "free_graphs.u_edges", "free_graphs.v_edges",
          "graded_graph.commutators", "operads.elements", "poly.terms", "series.coeffs",
          "tree_poset.elements")
RSS = ("tree.rss_mb", "free_graphs.rss_mb")


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric the trace determines (all but cli.import_s,
    gc.* and trace.overhead_s, which worker.py and run.py add)."""
    seconds = tr.self_seconds()
    out = {metric: seconds[name] for metric, name in LAYER_SPANS.items()}
    out.update({name: tr.counts[name] for name in COUNTS})
    out.update({name: tr.rss[name] for name in RSS})
    c = tr.counts
    out["poly.surviving_ratio"] = c["poly.surviving"] / c["poly.terms"] if c["poly.terms"] else 0.0
    out["tree_poset.join_defined_ratio"] = (c["tree_poset.joins_defined"] / c["tree_poset.joins"]
                                            if c["tree_poset.joins"] else 0.0)
    for name in tr.absent:
        out.pop(name, None)
    if "poly.terms" in tr.absent:
        out.pop("poly.surviving_ratio", None)
    return out


def traced_operations(state: dict, tr: Tracer) -> list[Op]:
    workload = state["inputs"]["workload"]
    return {"tree-paths": tree_paths, "duality": duality, "poset": poset}[workload](state, tr)


# tree-paths: enumerate each slice, run the star maps once over it (cold),
# then the hook recursion on warm star maps ------------------------------------------

def enumerate_slices(tr: Tracer, alphabet, degree: int):
    """Slices 0..degree, one span each; None when enumeration is gone."""
    with tr.optional("tree.enumerate_s", "tree.trees", "tree.rss_mb"):
        enumerate_trees = lookup("opergraph.tree", "enumerate_trees")
        slices = []
        for d in range(degree + 1):
            with tr.span("tree.enumerate"), tr.rss_growth("tree.rss_mb"):
                slices.append(enumerate_trees(alphabet, d))
        tr.counts["tree.trees"] += sum(len(s) for s in slices)
        return slices
    return None


STAR_MAPS = {  # graph -> (star map, span, edge count)
    "u": ("up_star_free", "free_graphs.deletions", "free_graphs.u_edges"),
    "v": ("v_star_free", "free_graphs.contractions", "free_graphs.v_edges"),
}


def apply_star(tr: Tracer, alphabet, slices, graph: str) -> None:
    """The first call of one star map on every tree of slices 1..degree."""
    star, span, edges = STAR_MAPS[graph]
    with tr.optional(span + "_s", edges, "free_graphs.rss_mb"):
        if slices is None:
            raise Missing("opergraph.tree.enumerate_trees")
        fn = lookup("opergraph.free_graphs", star)
        for trees in slices[1:]:
            with tr.span(span), tr.rss_growth("free_graphs.rss_mb"):
                tr.counts[edges] += sum(len(fn(t, alphabet)) for t in trees)


def tree_paths(state: dict, tr: Tracer) -> list[Op]:
    degree = state["inputs"]["degree"]
    slices = {}
    ops = []
    for name in state["inputs"]["alphabets"]:
        alphabet = state["alphabets"][name]
        for graph in ("u", "v"):
            hook = workloads.series_call(graph, alphabet, degree)

            def call(name=name, alphabet=alphabet, graph=graph, hook=hook):
                if name not in slices:
                    slices[name] = enumerate_slices(tr, alphabet, degree)
                apply_star(tr, alphabet, slices[name], graph)
                with tr.span("graded_graph.hook"):
                    return hook()
            ops.append(Op(f"{graph}-paths {name}", call,
                          workloads.check_paths(name, graph, degree)))
    return ops


# duality: the commutator V*U - UV* taken apart from outside ----------------------------

def commutators(tr: Tracer, pair, phi, rank: int, slice_span: str, slice_count: str,
                up_span: str):
    """check_phi_diagonal from outside.  Returns (True, None) when every
    commutator to the rank is phi(x)*x, else (False, (x, commutator)) at the
    first element where it is not; with phi None, at the first commutator
    that is not a multiple of its element."""
    unit = lookup("opergraph.poly", "Combination").unit
    up = tr.timed(up_span, pair.u.up)
    star = tr.timed("graded_graph.star", pair.v.star)
    for r in range(rank + 1):
        with tr.span(slice_span):
            xs = pair.universe.elements_of_rank(r)
        tr.counts[slice_count] += len(xs)
        for x in xs:
            with tr.span("poly.commutator"):
                left = up(x).apply_linear(star)
                right = star(x).apply_linear(up)
                comm = left - right
            tr.counts["graded_graph.commutators"] += 1
            # terms of V*U(x) and UV*(x), and those left after they cancel
            tr.counts["poly.terms"] += len(left) + len(right)
            tr.counts["poly.surviving"] += len(comm)
            if phi is None:
                if comm.support() - {x}:
                    return False, (x, comm)
            elif comm != unit(pair.universe, x, phi(x)):
                return False, (x, comm)
    return True, None


def duality(state: dict, tr: Tracer) -> list[Op]:
    inputs = state["inputs"]
    ops = []
    layers = ("graded_graph.star_s", "graded_graph.commutators", "poly.self_s", "poly.terms")
    for name, rank in inputs["free"]:
        alphabet = state["alphabets"][name]

        def call(alphabet=alphabet, rank=rank):
            with tr.optional("tree.enumerate_s", "tree.trees", "free_graphs.up_s", *layers):
                phi_free = lookup("opergraph.free_graphs", "phi_free")
                pair = lookup("opergraph.free_graphs", "prefix_pair")(alphabet)
                return commutators(tr, pair, lambda t: phi_free(t, alphabet), rank,
                                   "tree.enumerate", "tree.trees", "free_graphs.up")[0]
            return workloads.free_duality_call(alphabet, rank)()
        ops.append(Op(f"free {name}@{rank}", call, workloads.check_ok))

    def operad_pair(selector, pair_kind):
        op = lookup("opergraph.operads", "get_operad")(selector)
        make_pair = "self_pair" if pair_kind == "uu" else "prefix_pair"
        return op, lookup("opergraph.operads", make_pair)(op)

    operad_layers = ("operads.slice_s", "operads.elements", "operads.up_s", *layers)
    for selector, pair_kind, rank in inputs["operads"]:
        argv = workloads.operad_argv(selector, pair_kind, rank)

        def call(selector=selector, pair_kind=pair_kind, rank=rank, argv=argv):
            with tr.optional(*operad_layers):
                op, pair = operad_pair(selector, pair_kind)
                return commutators(tr, pair, op.phi, rank,
                                   "operads.slice", "operads.elements", "operads.up")[0]
            return workloads.operad_call(argv)()
        ops.append(Op(f"{selector} {pair_kind}@{rank}", call, workloads.check_ok))

    selector, pair_kind, rank = inputs["discover"]

    def discover():
        with tr.optional(*operad_layers):
            op, pair = operad_pair(selector, pair_kind)
            ok, found = commutators(tr, pair, None, rank,
                                    "operads.slice", "operads.elements", "operads.up")
            if ok:
                return 0, {"ok": True}
            x, comm = found
            return 1, {"witness": op.render_elem(x),
                       "commutator": [[c, op.render_elem(y)] for y, c in comm.terms()]}
        return workloads.cli_json(workloads.operad_argv(selector, pair_kind, rank))
    ops.append(Op(f"{selector} {pair_kind} discovery", discover, workloads.check_dias_witness))
    return ops


# poset: the series fixed points, then each query split into its calls -----------------------

def poset(state: dict, tr: Tracer) -> list[Op]:
    inputs = state["inputs"]
    ops = []
    for name, order in inputs["series"]:
        plain = workloads.series_op(name, state["alphabets"][name], order)

        def call(plain=plain):
            with tr.span("series.interval_series"):
                series = plain.call()
            tr.counts["series.coeffs"] += len(series.coeffs)
            return series
        ops.append(Op(plain.name, call, plain.check))

    alphabet = state["alphabets"][inputs["alphabet"]]
    cap = inputs["elements_cap"]
    fns = {}
    with tr.optional("tree.parse_s", "tree.parsed", "tree_poset.meet_s", "tree_poset.join_s",
                     "tree_poset.interval_count_s", "tree_poset.interval_elements_s",
                     "tree_poset.elements", "tree_poset.join_defined_ratio"):
        fns = {"parse_term": lookup("opergraph", "parse_term"),
               "meet": lookup("opergraph.tree_poset", "meet"),
               "join": lookup("opergraph.tree_poset", "join"),
               "interval_count": lookup("opergraph.tree_poset", "interval_count"),
               "interval_elements": lookup("opergraph.tree_poset", "interval_elements")}
    if not fns:
        # a staged function is gone: answer through the documented entry points
        plain = workloads.poset_ops(state)[len(inputs["series"]):]
        return ops + plain

    def query(terms):
        def call():
            with tr.span("tree.parse"):
                s, t, t2 = (fns["parse_term"](text, alphabet) for text in terms)
            tr.counts["tree.parsed"] += 3
            with tr.span("tree_poset.meet"):
                low = fns["meet"](t, t2)
            with tr.span("tree_poset.join"):
                high = fns["join"](t, t2)
            tr.counts["tree_poset.joins"] += 1
            tr.counts["tree_poset.joins_defined"] += high is not None
            with tr.span("tree_poset.interval_count"):
                count = fns["interval_count"](s, t)
            elements = None
            if count <= cap:
                with tr.span("tree_poset.interval_elements"):
                    elements = fns["interval_elements"](s, t)
                tr.counts["tree_poset.elements"] += len(elements)
            return s, t, t2, low, high, count, elements
        return call

    ops.extend(Op(f"query {k}", query(terms), workloads.check_query, query=True)
               for k, terms in enumerate(inputs["queries"]))
    return ops
