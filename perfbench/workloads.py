"""The three workloads: their inputs, the operations they time, and the
check applied to every answer.

Inputs are plain JSON data.  ``tree-paths`` and ``duality`` use pinned
inputs; ``poset`` draws its query terms from the seed.  The end-to-end
operations call only entry points the README documents; the checks compare
against the bundled pins and the program's independent oracles.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from contextlib import redirect_stdout

from spans import Missing

WORKLOADS = ("tree-paths", "duality", "poset")

# Full size.  Smoke size shrinks every input so the benchmark's own test is fast.
# tree-paths stops at degree 6: at 7 a cold process takes 12 s, too few fit in
# a run to outlast the host's speed changes.
TREE_ALPHABETS = ("a:2", "c:3", "a:2,b:2", "a:2,c:3")
FREE_PAIRS = (("a:2", 5), ("a:2,c:3", 4), ("e:1,c:3", 4))
OPERAD_PAIRS = (("comp", "uv"), ("motz", "uv"), ("fcat:1", "uv"), ("fcat:2", "uv"),
                ("fcat:3", "uv"), ("dias", "uu"))
SERIES_ORDERS = (("a:2", 30), ("a:2,c:3", 20), ("e:1,a:2,c:3", 16))
QUERY_ALPHABET = "e:1,a:2,c:3"
QUERY_DEGREES = (4, 14)
# interval_elements runs when the interval has at most this many elements;
# larger intervals are only counted.  About 96% of the queries enumerate.
ELEMENTS_CAP = 256
# series coefficients up to this t-degree are compared with the brute-force
# pair count (degree 4 costs seconds for three letters)
BRUTE_DEGREE = 3

FULL = {"tree_degree": 6, "duality_rank": 5, "queries": 7500, "series_scale": 1}
SMOKE = {"tree_degree": 4, "duality_rank": 3, "queries": 200, "series_scale": 4}


def lookup(module: str, name: str):
    """A program function by module and name; Missing when it is gone."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise Missing(f"{module}.{name}") from exc


# -- inputs -----------------------------------------------------------------------

def build_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    size = SMOKE if smoke else FULL
    if workload == "tree-paths":
        return {"workload": workload, "alphabets": list(TREE_ALPHABETS),
                "degree": size["tree_degree"]}
    if workload == "duality":
        rank = size["duality_rank"]
        return {"workload": workload,
                "free": [[a, min(r, rank)] for a, r in FREE_PAIRS],
                "operads": [[sel, pair, rank] for sel, pair in OPERAD_PAIRS],
                "discover": ["dias", "uv", rank]}
    if workload == "poset":
        return {"workload": workload,
                "series": [[a, r // size["series_scale"]] for a, r in SERIES_ORDERS],
                "alphabet": QUERY_ALPHABET, "elements_cap": ELEMENTS_CAP,
                "queries": generate_queries(QUERY_ALPHABET, seed, size["queries"])}
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def generate_queries(alphabet: str, seed: int, count: int) -> list[list[str]]:
    """[s, t, t2] term triples: t a random tree of degree 4-14,
    s a random prefix of t, and t2 a random prefix of t with random subtrees
    grafted onto some of its leaves, so that joins are defined for most but
    not all pairs."""
    letters = [(name, int(arity)) for name, arity in
               (chunk.split(":") for chunk in alphabet.split(","))]
    rng = random.Random(seed)

    def grow(degree):
        if degree == 0:
            return None
        name, arity = rng.choice(letters)
        # child degrees: a uniform composition of degree-1 into arity parts
        slots = degree - 1 + arity - 1
        edges = [-1] + sorted(rng.sample(range(slots), arity - 1)) + [slots]
        return name, [grow(edges[k + 1] - edges[k] - 1) for k in range(arity)]

    def prefix(t, keep):
        if t is None or rng.random() > keep:
            return None
        return t[0], [prefix(c, keep) for c in t[1]]

    def graft(t):
        if t is None:
            return grow(rng.randint(1, 3)) if rng.random() < 0.3 else None
        return t[0], [graft(c) for c in t[1]]

    def render(t):
        return "*" if t is None else f"{t[0]}[{','.join(render(c) for c in t[1])}]"

    low, high = QUERY_DEGREES
    out = []
    for k in range(count):
        # degrees cycle through the range so that seeds differ only in shapes
        t = grow(low + k % (high - low + 1))
        s = prefix(t, rng.uniform(0.3, 1.0))
        t2 = graft(prefix(t, rng.uniform(0.3, 1.0)))
        out.append([render(s), render(t), render(t2)])
    return out


# -- operations ---------------------------------------------------------------------

class Op:
    """One timed call and the untimed check of its answer.

    ``call`` returns the answer; ``check`` returns None when it is right and
    a description of the mismatch otherwise.  ``query`` marks the short
    prefix-order queries of ``poset``: when a workload has queries, they
    alone make up query_p50_us and query_p99_us; otherwise every operation
    does.
    """

    __slots__ = ("name", "call", "check", "query")

    def __init__(self, name, call, check, query=False):
        self.name, self.call, self.check, self.query = name, call, check, query


def prepare(inputs: dict) -> dict:
    """The set-up share of a workload: parse its alphabets."""
    parse = lookup("opergraph", "Alphabet").parse
    names = set(inputs.get("alphabets", ()))
    names.update(a for a, _ in inputs.get("free", ()))
    names.update(a for a, _ in inputs.get("series", ()))
    if "alphabet" in inputs:
        names.add(inputs["alphabet"])
    return {"inputs": inputs, "alphabets": {name: parse(name) for name in names}}


def operations(state: dict) -> list[Op]:
    workload = state["inputs"]["workload"]
    return {"tree-paths": tree_paths_ops, "duality": duality_ops,
            "poset": poset_ops}[workload](state)


def pinned(kind: str, **match) -> dict:
    for fx in lookup("opergraph.cli", "load_fixtures")():
        if fx["kind"] == kind and all(fx.get(k) == v for k, v in match.items()):
            return fx
    raise LookupError(f"no {kind} pin for {match}")


def mismatch(wanted, got) -> str | None:
    return None if wanted == got else f"expected {wanted}, got {got}"


# tree-paths ----------------------------------------------------------------------------

def check_paths(name: str, graph: str, degree: int):
    def check(got):
        wanted = pinned("paths_series", alphabet=name, graph=graph)["terms"][:degree + 1]
        if len(wanted) != degree + 1:
            return f"the pin stops at degree {len(wanted) - 1}"
        bad = mismatch(wanted, got)
        if bad is None and graph == "u":
            theta = lookup("opergraph.free_graphs", "theta_row_sums")
            from_theta = theta(lookup("opergraph", "Alphabet").parse(name), degree)
            bad = mismatch(from_theta, got)
        return bad
    return check


def series_call(graph: str, alphabet, degree: int):
    def call():
        make_graph = lookup("opergraph.free_graphs",
                            "prefix_graph" if graph == "u" else "twisted_graph")
        return make_graph(alphabet).initial_paths_series(degree).t_coeff_list(degree)
    return call


def tree_paths_ops(state: dict) -> list[Op]:
    degree = state["inputs"]["degree"]
    ops = []
    for name in state["inputs"]["alphabets"]:
        alphabet = state["alphabets"][name]
        for graph in ("u", "v"):
            ops.append(Op(f"{graph}-paths {name}", series_call(graph, alphabet, degree),
                          check_paths(name, graph, degree)))
    return ops


# duality --------------------------------------------------------------------------------

def free_duality_call(alphabet, rank: int):
    def call():
        phi_free = lookup("opergraph.free_graphs", "phi_free")
        pair = lookup("opergraph.free_graphs", "prefix_pair")(alphabet)
        return pair.check_phi_diagonal(lambda t: phi_free(t, alphabet), rank).ok
    return call


def cli_json(argv: list[str]):
    """(exit code, parsed JSON) of one documented CLI call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = lookup("opergraph.cli", "main")(argv + ["--json"])
    return code, json.loads(out.getvalue())


def operad_argv(selector: str, pair: str, rank: int) -> list[str]:
    return ["check-duality", "--operad", selector, "--pair", pair, "--max", str(rank)]


def operad_call(argv: list[str]):
    def call():
        code, payload = cli_json(argv)
        return code == 0 and payload["ok"] is True
    return call


def check_ok(got):
    return None if got is True else "the commutator is not diagonal"


def check_dias_witness(got):
    code, payload = got
    found = (code, payload.get("witness"),
             {elem: c for c, elem in payload.get("commutator", ())})
    return mismatch((1, "10", {"10": 3, "01": 2}), found)


def duality_ops(state: dict) -> list[Op]:
    inputs = state["inputs"]
    ops = []
    for name, rank in inputs["free"]:
        ops.append(Op(f"free {name}@{rank}",
                      free_duality_call(state["alphabets"][name], rank), check_ok))
    for selector, pair, rank in inputs["operads"]:
        ops.append(Op(f"{selector} {pair}@{rank}",
                      operad_call(operad_argv(selector, pair, rank)), check_ok))
    selector, pair, rank = inputs["discover"]
    argv = operad_argv(selector, pair, rank)
    ops.append(Op(f"{selector} {pair} discovery", lambda: cli_json(argv), check_dias_witness))
    return ops


# poset ------------------------------------------------------------------------------------

def check_interval_series(name: str, order: int):
    def check(series):
        alphabet = lookup("opergraph", "Alphabet").parse(name)
        if name == "a:2":
            terms = pinned("interval_q1", alphabet=name)["terms"]
            n = min(order, len(terms) - 1)
            bad = mismatch(terms[:n + 1], series.eval_q(1).t_coeff_list(n))
            if bad:
                return bad
            rows = pinned("interval_poly", alphabet=name)["rows"][:order + 1]
            return mismatch(rows, [[series.coeff(i, j) for i in range(j + 1)]
                                   for j in range(len(rows))])
        brute = lookup("opergraph.tree_poset", "interval_count_brute")
        top = min(order, BRUTE_DEGREE)
        return mismatch([[brute(alphabet, i, j) for i in range(j + 1)] for j in range(top + 1)],
                        [[series.coeff(i, j) for i in range(j + 1)] for j in range(top + 1)])
    return check


def series_op(name: str, alphabet, order: int) -> Op:
    def call():
        return lookup("opergraph.tree_poset", "interval_series")(alphabet, order)
    return Op(f"interval-series {name}@{order}", call, check_interval_series(name, order))


def check_query(answer) -> str | None:
    """meet below both arguments, join above both, and the interval count
    equal to the number of elements whenever they were enumerated."""
    s, t, t2, low, high, count, elements = answer
    leq = lookup("opergraph.tree_poset", "poset_leq")
    if not (leq(low, t) and leq(low, t2)):
        return f"meet {low} is not below {t} and {t2}"
    if high is not None and not (leq(t, high) and leq(t2, high)):
        return f"join {high} is not above {t} and {t2}"
    if elements is not None and count != len(elements):
        return f"interval [{s}, {t}] counts {count} but has {len(elements)} elements"
    if count < 1:
        return f"interval [{s}, {t}] is empty"
    return None


def query_op(k: int, terms: list[str], alphabet, cap: int, fns: dict) -> Op:
    def call():
        s, t, t2 = (fns["parse_term"](text, alphabet) for text in terms)
        low = fns["meet"](t, t2)
        high = fns["join"](t, t2)
        count = fns["interval"](s, t, "count")
        elements = fns["interval"](s, t, "elements") if count <= cap else None
        return s, t, t2, low, high, count, elements
    return Op(f"query {k}", call, check_query, query=True)


def poset_ops(state: dict) -> list[Op]:
    inputs = state["inputs"]
    ops = [series_op(name, state["alphabets"][name], order)
           for name, order in inputs["series"]]
    try:
        fns = {"parse_term": lookup("opergraph", "parse_term"),
               "meet": lookup("opergraph.tree_poset", "meet"),
               "join": lookup("opergraph.tree_poset", "join"),
               "interval": lookup("opergraph.tree_poset", "interval")}
    except Missing as exc:
        def fail(*_, exc=exc):
            raise exc
        fns = dict.fromkeys(("parse_term", "meet", "join", "interval"), fail)
    alphabet = state["alphabets"][inputs["alphabet"]]
    ops.extend(query_op(k, terms, alphabet, inputs["elements_cap"], fns)
               for k, terms in enumerate(inputs["queries"]))
    return ops
