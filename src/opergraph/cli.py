"""Command-line surface and bundled verification fixtures.

Exit codes: 0 success, 1 a failed verification (with a witness) or a closed
stdout, 2 usage errors.  ``--json`` gives any subcommand machine output.
``main`` builds the argument parser on its first call and reuses it on every
later call in the process; ``build_parser`` returns a new one each time.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from importlib import resources

from .alphabet import Alphabet
from .free_graphs import (hook_closed_form, phi_self_singleton, theta_row_sums,
                          twisted_hook)
from .operads import (TreeUniverse, get_operad, minimal_generators, prefix_graph,
                      prefix_pair, self_pair, twisted_graph, v_operad_oracle)
from .tree import enumerate_trees, parse_term
from .tree_poset import (interval, interval_series, join, load, meet, shadow,
                         stringy_count)


def _universe(alphabet: str | None, operad: str | None = None):
    """The free operad on an alphabet (``''`` is the empty one), or else the
    operad a selector names."""
    if alphabet is not None:
        return TreeUniverse(Alphabet.parse(alphabet))
    return get_operad(operad)


def _graph(universe, which: str):
    """The U (prefix) or V (twisted) graph of a universe."""
    return (prefix_graph if which == "u" else twisted_graph)(universe)


def _pair(universe, which: str):
    """The (U,V) pair, or the (U,U) pair for ``uu``."""
    return (self_pair if which == "uu" else prefix_pair)(universe)


def _emit(args, payload, plain):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=None, separators=(",", ":")))
    else:
        plain()


# -- subcommand handlers -------------------------------------------------------

def cmd_trees(args) -> int:
    trees = enumerate_trees(Alphabet.parse(args.alphabet), args.degree)
    payload = {"count": len(trees)}
    if args.list:
        payload["trees"] = [t.term for t in trees]

    def plain():
        print(len(trees))
        if args.list:
            for t in trees:
                print(t.term)

    _emit(args, payload, plain)
    return 0


def cmd_hook(args, twisted: bool) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    stat = twisted_hook if twisted else hook_closed_form
    rows = [(t.term, stat(t)) for t in enumerate_trees(alphabet, args.degree)]
    _emit(args, {"degree": args.degree, "hooks": rows},
          lambda: [print(f"{term} {value}") for term, value in rows])
    return 0


def cmd_paths_series(args) -> int:
    graph = _graph(_universe(args.alphabet), args.graph)
    coeffs: list[int] = graph.initial_paths_series(args.max).t_coeff_list(args.max)
    _emit(args, {"graph": args.graph, "coefficients": coeffs},
          lambda: print(",".join(str(c) for c in coeffs)))
    return 0


def cmd_check_duality(args) -> int:
    universe = _universe(args.alphabet, args.operad)
    known = not args.discover_phi and args.pair == universe.phi_pair
    report = _pair(universe, args.pair).check_phi_diagonal(
        universe.phi if known else None, args.max)
    render = universe.render_elem
    if report.ok:
        payload = {"ok": True, "checked": report.checked, "max_rank": args.max}
        if report.table is not None:
            payload["phi"] = [[render(x), c] for x, c in
                              sorted(report.table.items(),
                                     key=lambda kv: universe.sort_key(kv[0]))]

        def plain():
            print(f"ok: diagonal duality verified on {report.checked} elements "
                  f"up to rank {args.max}")
            for name, c in payload.get("phi", ()):
                print(f"phi {name} = {c}")
        _emit(args, payload, plain)
        return 0
    failure = report.witness()
    payload = {"ok": False, "witness": render(failure.element),
               "commutator": failure.commutator.to_json()}
    if failure.expected is not None:
        payload["expected"] = failure.expected.to_json()
    _emit(args, payload, lambda: print(f"FAIL: {failure.render(universe)}"))
    return 1


def cmd_poset(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    if args.poset_cmd == "meet":
        result = meet(parse_term(args.left, alphabet), parse_term(args.right, alphabet))
        _emit(args, {"meet": result.term}, lambda: print(result.term))
        return 0
    if args.poset_cmd == "join":
        result = join(parse_term(args.left, alphabet), parse_term(args.right, alphabet))
        text = result.term if result is not None else None
        _emit(args, {"join": text},
              lambda: print(text if text is not None else "no upper bound"))
        return 0
    if args.poset_cmd == "interval":
        lower = parse_term(args.lower, alphabet)
        upper = parse_term(args.upper, alphabet)
        count = interval(lower, upper, "count")
        payload = {"count": count}
        if args.elements:
            payload["elements"] = [t.term for t in interval(lower, upper, "elements")]

        def plain():
            print(count)
            for term in payload.get("elements", ()):
                print(term)

        _emit(args, payload, plain)
        return 0
    if args.poset_cmd == "interval-series":
        series = interval_series(alphabet, args.max)
        if args.q is not None:
            coeffs = series.eval_q(args.q).t_coeff_list(args.max)
            _emit(args, {"q": args.q, "coefficients": coeffs},
                  lambda: print(",".join(str(c) for c in coeffs)))
        else:
            _emit(args, {"series": series.render()}, lambda: print(series.render()))
        return 0
    if args.poset_cmd == "stringy":
        counts = [stringy_count(alphabet, d) for d in range(args.max + 1)]
        _emit(args, {"counts": counts}, lambda: print(",".join(str(c) for c in counts)))
        return 0
    raise SystemExit(2)


def cmd_operad(args) -> int:
    op = get_operad(args.selector)
    if args.operad_cmd in ("up", "v", "v-oracle"):
        x = op.parse_elem(args.element)
        combo = (v_operad_oracle(op, x) if args.operad_cmd == "v-oracle"
                 else _graph(op, "u" if args.operad_cmd == "up" else "v").up(x))
        _emit(args, {"result": combo.to_json()}, lambda: print(combo.render()))
        return 0
    if args.operad_cmd == "hook":
        rows = [[op.render_elem(x), c]
                for slice_ in prefix_graph(op).iter_hook_slices(args.max)
                for x, c in slice_.items()]
        _emit(args, {"hooks": rows},
              lambda: [print(f"{name} {value}") for name, value in rows])
        return 0
    if args.operad_cmd == "generators":
        gens = minimal_generators(op, args.arity_max)
        names = [op.render_elem(g) for g in gens]
        _emit(args, {"generators": names}, lambda: [print(n) for n in names])
        return 0
    raise SystemExit(2)


def cmd_export_dot(args) -> int:
    graph = _graph(_universe(args.alphabet, args.operad), args.graph)
    if args.json:
        print(json.dumps(graph.export_json(args.max)))
    else:
        sys.stdout.write(graph.export_dot(args.max))
    return 0


# -- fixtures ----------------------------------------------------------------------

def load_fixtures() -> list[dict]:
    text = resources.files("opergraph").joinpath("fixtures.json").read_text()
    return json.loads(text)


# sequence kinds: terms 0..n of the pinned sequence over the fixture's alphabet
_SEQUENCES = {
    "paths_series": lambda fx, alphabet, n:
        _graph(TreeUniverse(alphabet), fx["graph"]).initial_paths_series(n).t_coeff_list(n),
    "theta_rows": lambda fx, alphabet, n: theta_row_sums(alphabet, n),
    "stringy": lambda fx, alphabet, n: [stringy_count(alphabet, d) for d in range(n + 1)],
    "interval_q1": lambda fx, alphabet, n: interval_series(alphabet, n).eval_q(1).t_coeff_list(n),
}

# duality kinds that check the (U,U) pair although the fixture names no pair
_SELF_PAIR_KINDS = ("free_self_duality", "free_self_duality_fails")


def _fixture_pair(fx: dict):
    universe = _universe(fx.get("alphabet"), fx.get("operad"))
    which = "uu" if fx["kind"] in _SELF_PAIR_KINDS else fx.get("pair", "uv")
    return universe, _pair(universe, which)


def _check_sequence(fx: dict):
    wanted = fx["terms"]
    got = _SEQUENCES[fx["kind"]](fx, Alphabet.parse(fx["alphabet"]), len(wanted) - 1)
    return got == wanted, str(wanted), str(got)


def _check_interval_poly(fx: dict):
    rows = fx["rows"]
    series = interval_series(Alphabet.parse(fx["alphabet"]), len(rows) - 1)
    got = [[series.coeff(i, j) for i in range(j + 1)] for j in range(len(rows))]
    ok = got == rows
    if "displayed_rows" in fx:
        # the printed table lists each row by co-degree (reversed)
        ok = ok and [list(reversed(r)) for r in got] == fx["displayed_rows"]
    return ok, str(rows), str(got)


def _check_shadow_load(fx: dict):
    got = load(shadow(parse_term(fx["term"], Alphabet.parse(fx["alphabet"]))))
    return got == fx["expected"], str(fx["expected"]), str(got)


def _check_hooks(fx: dict):
    universe = get_operad(fx["operad"])
    got = {universe.render_elem(x): c
           for slice_ in prefix_graph(universe).iter_hook_slices(fx["max_degree"])
           for x, c in slice_.items()}
    wanted = fx["coeffs"]
    return got == wanted, f"{len(wanted)} pinned coefficients", str(got)


def _check_uniform_hooks(fx: dict):
    universe = get_operad(fx["operad"])
    per_degree = fx["per_degree"]
    slices = prefix_graph(universe).iter_hook_slices(len(per_degree) - 1)
    for d, slice_ in enumerate(slices):
        for x, c in slice_.items():
            if c != per_degree[d]:
                return (False, f"{per_degree[d]} at every degree-{d} element",
                        f"{c} at {universe.render_elem(x)}")
    return True, "uniform per-degree hooks", "uniform per-degree hooks"


def _check_duality(fx: dict):
    universe, pair = _fixture_pair(fx)
    phi = (partial(phi_self_singleton, alphabet=universe.alphabet)
           if fx["kind"] == "free_self_duality" else universe.phi)
    report = pair.check_phi_diagonal(phi, fx["max_degree"])
    return report.ok, "diagonal", "diagonal" if report.ok else \
        report.witness().render(universe)


def _check_witness(fx: dict):
    """The first non-diagonal commutator, and its terms when pinned."""
    universe, pair = _fixture_pair(fx)
    report = pair.check_phi_diagonal(None, fx["max_degree"])
    if report.ok:
        return False, "a non-diagonal witness", "diagonal everywhere"
    witness = report.witness()
    render = universe.render_elem
    wanted, got = fx["witness"], render(witness.element)
    ok = got == wanted
    if "commutator" in fx:
        got_comm = {render(x): c for x, c in witness.commutator.terms()}
        ok = ok and got_comm == fx["commutator"]
        wanted, got = f"{wanted} -> {fx['commutator']}", f"{got} -> {got_comm}"
    return ok, wanted, got


_CHECKS = {
    **dict.fromkeys(_SEQUENCES, _check_sequence),
    "interval_poly": _check_interval_poly,
    "shadow_load": _check_shadow_load,
    "operad_hook": _check_hooks,
    "hook_all_equal": _check_uniform_hooks,
    "free_duality": _check_duality,
    "free_self_duality": _check_duality,
    "operad_duality": _check_duality,
    "free_self_duality_fails": _check_witness,
    "operad_not_diagonal": _check_witness,
}


def run_fixture(fx: dict) -> tuple[bool, str, str]:
    """Returns (ok, expected description, actual description)."""
    check = _CHECKS.get(fx["kind"])
    if check is None:
        raise ValueError(f"unknown fixture kind {fx['kind']!r}")
    return check(fx)


def verify_fixtures(pattern: str | None = None) -> list[tuple[dict, bool, str, str]]:
    results = []
    for fx in load_fixtures():
        if pattern and pattern not in fx["id"]:
            continue
        ok, wanted, got = run_fixture(fx)
        results.append((fx, ok, wanted, got))
    return results


def cmd_verify_fixtures(args) -> int:
    results = verify_fixtures(args.filter)
    if not results:
        print(f"no fixtures match {args.filter!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([{"id": fx["id"], "ok": ok, "expected": wanted, "actual": got}
                          for fx, ok, wanted, got in results]))
    else:
        for fx, ok, wanted, got in results:
            if ok:
                print(f"PASS {fx['id']}  {fx['description']}")
            else:
                print(f"FAIL {fx['id']}  expected {wanted}, got {got}")
        bad = sum(1 for _, ok, _, _ in results if not ok)
        print(f"{len(results) - bad}/{len(results)} fixtures pass")
    return 0 if all(ok for _, ok, _, _ in results) else 1


# -- parser ------------------------------------------------------------------------

def _bound(text: str) -> int:
    """A degree, rank or arity bound: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line, on every call."""
    parser = argparse.ArgumentParser(
        prog="opergraph",
        description="Exact graded graphs, hook statistics and prefix posets "
                    "of decorated trees and operads.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="enumerate trees of one degree")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--degree", type=_bound, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trees)

    for name, twisted in (("hook", False), ("twisted-hook", True)):
        p = sub.add_parser(name, help=f"{name} statistic per tree of one degree")
        p.add_argument("--alphabet", required=True)
        p.add_argument("--degree", type=_bound, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, twisted=twisted: cmd_hook(a, twisted))

    p = sub.add_parser("paths-series", help="initial multipath counts by rank")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--graph", choices=("u", "v"), required=True)
    p.add_argument("--max", type=_bound, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paths_series)

    p = sub.add_parser("check-duality", help="verify a diagonal commutator")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--alphabet")
    target.add_argument("--operad")
    p.add_argument("--pair", choices=("uv", "uu"), default="uv")
    p.add_argument("--max", type=_bound, required=True)
    p.add_argument("--discover-phi", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_duality)

    p = sub.add_parser("poset", help="prefix-order operations")
    psub = p.add_subparsers(dest="poset_cmd", required=True)
    q = psub.add_parser("meet")
    q.add_argument("--alphabet", required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.add_argument("--json", action="store_true")
    q = psub.add_parser("join")
    q.add_argument("--alphabet", required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.add_argument("--json", action="store_true")
    q = psub.add_parser("interval")
    q.add_argument("--alphabet", required=True)
    q.add_argument("--lower", required=True)
    q.add_argument("--upper", required=True)
    q.add_argument("--elements", action="store_true")
    q.add_argument("--json", action="store_true")
    q = psub.add_parser("interval-series")
    q.add_argument("--alphabet", required=True)
    q.add_argument("--max", type=_bound, required=True)
    q.add_argument("--q", type=int, default=None)
    q.add_argument("--json", action="store_true")
    q = psub.add_parser("stringy")
    q.add_argument("--alphabet", required=True)
    q.add_argument("--max", type=_bound, required=True)
    q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("operad", help="concrete-operad operations")
    p.add_argument("selector", help="as | dias | comp | motz | fcat:<m>")
    osub = p.add_subparsers(dest="operad_cmd", required=True)
    for name in ("up", "v", "v-oracle"):
        q = osub.add_parser(name)
        q.add_argument("--element", required=True)
        q.add_argument("--json", action="store_true")
    q = osub.add_parser("hook")
    q.add_argument("--max", type=_bound, required=True)
    q.add_argument("--json", action="store_true")
    q = osub.add_parser("generators")
    q.add_argument("--arity-max", type=_bound, required=True)
    q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_operad)

    p = sub.add_parser("export-dot", help="Graphviz or JSON export of a graph")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--alphabet")
    target.add_argument("--operad")
    p.add_argument("--graph", choices=("u", "v"), required=True)
    p.add_argument("--max", type=_bound, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("verify-fixtures", help="run the bundled expected-value table")
    p.add_argument("--filter", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_fixtures)

    return parser


# the parser ``main`` built on its first call; parse_args leaves a parser as it
# was, so one serves every later call in the process
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code; argparse's own errors and ``--help`` raise
    ``SystemExit``.  The parser is built on the first call and reused by
    every later one, so an in-process call pays only for its command."""
    global _parser
    try:
        try:
            if _parser is None:
                _parser = build_parser()
            args = _parser.parse_args(argv)
            return args.func(args)
        except (ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RecursionError:
            # the tree walks that still recurse reach here on very deep terms
            print("error: the input nests too deeply", file=sys.stderr)
            return 2
        finally:
            sys.stdout.flush()  # a closed stdout shows here, --help included
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
