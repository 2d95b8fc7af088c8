"""Command-line surface and bundled verification fixtures.

Exit codes: 0 success, 1 a failed verification (with a witness) or a closed
stdout, 2 usage errors.  ``--json`` gives any subcommand machine output.
``_command`` declares each subcommand once in one command tree (a leaf with
its handler, a group with the level below it), and every handler prints
through ``_emit``.  Path series, stringy counts and operad hook rows are each
computed by one function, which the fixture checks call too.  ``main`` builds
only the parsers on the command path its line names (the whole tree for
``--help`` or a missing or unknown command) and keeps each for later calls on
that path; ``build_parser`` returns a new one each time.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from importlib import resources

from .alphabet import Alphabet
# via free_graphs, so that importing the CLI loads every module the benchmark looks up
from .free_graphs import theta_row_sums
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


def _emit(args, payload, lines, code=0, separators=(",", ":")):
    """Print the payload as one JSON line under --json, else each line; return code."""
    if args.json:
        print(json.dumps(payload, separators=separators))
    else:
        for line in lines:
            print(line)
    return code


# -- quantities shared by the commands and the fixture checks ------------------

def _paths_series(alphabet, which: str, n: int) -> list[int]:
    """Initial multipath counts of ranks 0..n in the free U or V graph."""
    return _graph(TreeUniverse(alphabet), which).initial_paths_series(n).t_coeff_list(n)


def _stringy_counts(alphabet, n: int) -> list[int]:
    return [stringy_count(alphabet, d) for d in range(n + 1)]


def _operad_hooks(op, max_degree: int) -> list[tuple[str, int]]:
    """(rendered element, hook) for every element up to the degree, in
    slice order."""
    return [(op.render_elem(x), c)
            for slice_ in prefix_graph(op).iter_hook_slices(max_degree)
            for x, c in slice_.items()]


# -- subcommand handlers -------------------------------------------------------

def cmd_trees(args) -> int:
    trees = enumerate_trees(Alphabet.parse(args.alphabet), args.degree)
    payload = {"count": len(trees)}
    if args.list:  # rendering a large slice is what --list asks for
        payload["trees"] = [t.term for t in trees]
    return _emit(args, payload, [len(trees), *payload.get("trees", ())])


def cmd_hook(args, stat) -> int:
    universe = TreeUniverse(Alphabet.parse(args.alphabet))
    rows = [(t.term, stat(universe, t)) for t in universe.elements_of_rank(args.degree)]
    return _emit(args, {"degree": args.degree, "hooks": rows},
                 (f"{term} {value}" for term, value in rows))


def cmd_paths_series(args) -> int:
    coeffs = _paths_series(Alphabet.parse(args.alphabet), args.graph, args.max)
    return _emit(args, {"graph": args.graph, "coefficients": coeffs},
                 [",".join(map(str, coeffs))])


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
        return _emit(args, payload, [
            f"ok: diagonal duality verified on {report.checked} elements "
            f"up to rank {args.max}",
            *(f"phi {name} = {c}" for name, c in payload.get("phi", ()))])
    failure = report.witness
    payload = {"ok": False, "witness": render(failure.element),
               "commutator": failure.commutator.to_json()}
    if failure.expected is not None:
        payload["expected"] = failure.expected.to_json()
    return _emit(args, payload, [f"FAIL: {failure.render()}"], 1)


def _terms(args, *names):
    """The named arguments, parsed as terms over --alphabet."""
    alphabet = Alphabet.parse(args.alphabet)
    return [parse_term(getattr(args, name), alphabet) for name in names]


def cmd_meet(args) -> int:
    text = meet(*_terms(args, "left", "right")).term
    return _emit(args, {"meet": text}, [text])


def cmd_join(args) -> int:
    result = join(*_terms(args, "left", "right"))
    text = result.term if result is not None else None
    return _emit(args, {"join": text}, [text if text is not None else "no upper bound"])


def cmd_interval(args) -> int:
    lower, upper = _terms(args, "lower", "upper")
    payload = {"count": interval(lower, upper, "count")}
    if args.elements:
        payload["elements"] = [t.term for t in interval(lower, upper, "elements")]
    return _emit(args, payload, [payload["count"], *payload.get("elements", ())])


def cmd_interval_series(args) -> int:
    series = interval_series(Alphabet.parse(args.alphabet), args.max)
    if args.q is None:
        text = series.render()
        return _emit(args, {"series": text}, [text])
    coeffs = series.eval_q(args.q).t_coeff_list(args.max)
    return _emit(args, {"q": args.q, "coefficients": coeffs}, [",".join(map(str, coeffs))])


def cmd_stringy(args) -> int:
    counts = _stringy_counts(Alphabet.parse(args.alphabet), args.max)
    return _emit(args, {"counts": counts}, [",".join(map(str, counts))])


def cmd_operad_row(args, row) -> int:
    """One row map (``up``, ``v`` or ``v-oracle``) at one operad element."""
    op = get_operad(args.selector)
    combo = row(op, op.parse_elem(args.element))
    return _emit(args, {"result": combo.to_json()}, [combo.render()])


_ROWS = {"up": lambda op, x: prefix_graph(op).up(x),
         "v": lambda op, x: twisted_graph(op).up(x),
         "v-oracle": v_operad_oracle}


def cmd_operad_hook(args) -> int:
    rows = _operad_hooks(get_operad(args.selector), args.max)
    return _emit(args, {"hooks": rows}, (f"{name} {value}" for name, value in rows))


def cmd_operad_generators(args) -> int:
    op = get_operad(args.selector)
    names = [op.render_elem(g) for g in minimal_generators(op, args.arity_max)]
    return _emit(args, {"generators": names}, names)


def cmd_export_dot(args) -> int:
    # only the export asked for is built; JSON keeps json.dumps' default separators
    graph = _graph(_universe(args.alphabet, args.operad), args.graph)
    if args.json:
        return _emit(args, graph.export_json(args.max), (), separators=None)
    return _emit(args, None, [graph.export_dot(args.max).removesuffix("\n")])


# -- fixtures ----------------------------------------------------------------------

def load_fixtures() -> list[dict]:
    text = resources.files("opergraph").joinpath("fixtures.json").read_text()
    return json.loads(text)


# sequence kinds: terms 0..n of the pinned sequence over the fixture's alphabet
_SEQUENCES = {
    "paths_series": lambda fx, alphabet, n: _paths_series(alphabet, fx["graph"], n),
    "theta_rows": lambda fx, alphabet, n: theta_row_sums(alphabet, n),
    "stringy": lambda fx, alphabet, n: _stringy_counts(alphabet, n),
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
    got = dict(_operad_hooks(get_operad(fx["operad"]), fx["max_degree"]))
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
    phi = universe.phi_self if fx["kind"] == "free_self_duality" else universe.phi
    report = pair.check_phi_diagonal(phi, fx["max_degree"])
    return report.ok, "diagonal", "diagonal" if report.ok else \
        report.witness.render()


def _check_witness(fx: dict):
    """The first non-diagonal commutator, and its terms when pinned."""
    universe, pair = _fixture_pair(fx)
    report = pair.check_phi_diagonal(None, fx["max_degree"])
    if report.ok:
        return False, "a non-diagonal witness", "diagonal everywhere"
    witness = report.witness
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


def verify_fixtures(pattern: str | None = None) -> list[tuple[dict, bool, str, str]]:
    """(fixture, ok, expected, actual) for each fixture whose id has the pattern."""
    results = []
    for fx in load_fixtures():
        if pattern and pattern not in fx["id"]:
            continue
        check = _CHECKS.get(fx["kind"])
        if check is None:
            raise ValueError(f"unknown fixture kind {fx['kind']!r}")
        results.append((fx, *check(fx)))
    return results


def cmd_verify_fixtures(args) -> int:
    results = verify_fixtures(args.filter)
    if not results:
        print(f"no fixtures match {args.filter!r}", file=sys.stderr)
        return 2
    bad = sum(1 for _, ok, _, _ in results if not ok)
    lines = [f"PASS {fx['id']}  {fx['description']}" if ok else
             f"FAIL {fx['id']}  expected {wanted}, got {got}"
             for fx, ok, wanted, got in results]
    return _emit(args, [{"id": fx["id"], "ok": ok, "expected": wanted, "actual": got}
                        for fx, ok, wanted, got in results],
                 [*lines, f"{len(results) - bad}/{len(results)} fixtures pass"],
                 1 if bad else 0, separators=None)


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


# argument declarations: (flag, add_argument options); _TARGET stands for the
# required choice between --alphabet and --operad
_REQUIRED = {"required": True}
_STORE = {"action": "store_true"}
_BOUND = {"type": _bound, "required": True}
_ALPHABET = ("--alphabet", _REQUIRED)
_MAX = ("--max", _BOUND)
_GRAPH = ("--graph", {"choices": ("u", "v"), "required": True})
_TARGET = None


def _command(target, *arguments, **options):
    """One command's declaration: its handler, or for a group the level of
    subcommands below it; then its arguments in order (a group's are
    positionals) and its ``add_parser`` options."""
    return target, arguments, options


# the command tree, each level a dict from command name to declaration; a
# group's subcommand lands in ``<name>_cmd``
_POSET = {
    "meet": _command(cmd_meet, _ALPHABET, ("--left", _REQUIRED), ("--right", _REQUIRED)),
    "join": _command(cmd_join, _ALPHABET, ("--left", _REQUIRED), ("--right", _REQUIRED)),
    "interval": _command(cmd_interval, _ALPHABET, ("--lower", _REQUIRED),
                         ("--upper", _REQUIRED), ("--elements", _STORE)),
    "interval-series": _command(cmd_interval_series, _ALPHABET, _MAX,
                                ("--q", {"type": int, "default": None})),
    "stringy": _command(cmd_stringy, _ALPHABET, _MAX),
}
_OPERAD = {
    **{name: _command(partial(cmd_operad_row, row=row), ("--element", _REQUIRED))
       for name, row in _ROWS.items()},
    "hook": _command(cmd_operad_hook, _MAX),
    "generators": _command(cmd_operad_generators, ("--arity-max", _BOUND)),
}
_COMMANDS = {
    "trees": _command(cmd_trees, _ALPHABET, ("--degree", _BOUND), ("--list", _STORE),
                      help="enumerate trees of one degree"),
    **{name: _command(partial(cmd_hook, stat=stat), _ALPHABET, ("--degree", _BOUND),
                      help=f"{name} statistic per tree of one degree")
       for name, stat in (("hook", TreeUniverse.hook_u), ("twisted-hook", TreeUniverse.hook_v))},
    "paths-series": _command(cmd_paths_series, _ALPHABET, _GRAPH, _MAX,
                             help="initial multipath counts by rank"),
    "check-duality": _command(cmd_check_duality, _TARGET,
                              ("--pair", {"choices": ("uv", "uu"), "default": "uv"}), _MAX,
                              ("--discover-phi", _STORE), help="verify a diagonal commutator"),
    "poset": _command(_POSET, help="prefix-order operations"),
    "operad": _command(_OPERAD, ("selector", {"help": "as | dias | comp | motz | fcat:<m>"}),
                       help="concrete-operad operations"),
    "export-dot": _command(cmd_export_dot, _TARGET, _GRAPH, _MAX,
                           help="Graphviz or JSON export of a graph"),
    "verify-fixtures": _command(cmd_verify_fixtures, ("--filter", {"default": None}),
                                help="run the bundled expected-value table"),
}


def _add_commands(parser, dest: str, level: dict, path: tuple[str, ...]) -> None:
    """Add one level of subcommands: all of them when ``path`` is empty,
    else only ``path[0]``, with only the rest of the path below it.  A level
    cut to one command keeps every name in its metavar, so usage lines read
    as they do on the whole tree."""
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(level) + "}" if path else None)
    for name in path[:1] or level:
        target, arguments, options = level[name]
        p = sub.add_parser(name, **options)
        for argument in arguments:
            if argument is _TARGET:
                target_group = p.add_mutually_exclusive_group(required=True)
                target_group.add_argument("--alphabet")
                target_group.add_argument("--operad")
            else:
                p.add_argument(argument[0], **argument[1])
        if isinstance(target, dict):
            _add_commands(p, f"{name}_cmd", target, path[1:])
        else:
            p.add_argument("--json", action="store_true")
            p.set_defaults(func=target)


def build_parser(path: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """A new parser on every call: for the whole command line, or with only
    the parsers on one command path, as ``_command_path`` finds it."""
    parser = argparse.ArgumentParser(
        prog="opergraph",
        description="Exact graded graphs, hook statistics and prefix posets "
                    "of decorated trees and operads.")
    _add_commands(parser, "command", _COMMANDS, tuple(path))
    return parser


def _command_path(argv) -> tuple[str, ...]:
    """The command names that argv's leading words spell down to a leaf,
    past each group's positional arguments (``operad``'s selector); ``()``
    when they name no leaf, as with ``--help`` or a missing or unknown
    command.  A skipped word must not start with ``-``, since argparse may
    read it as an option."""
    path, level, i = (), _COMMANDS, 0
    while i < len(argv) and argv[i] in level:
        target, arguments, _ = level[argv[i]]
        path += (argv[i],)
        if not isinstance(target, dict):
            return path
        skipped = argv[i + 1:i + 1 + len(arguments)]
        if len(skipped) < len(arguments) or any(w.startswith("-") for w in skipped):
            return ()
        i += 1 + len(arguments)
        level = target
    return ()


# the parsers ``main`` has built, by command path (``()`` for the whole
# tree); parse_args leaves a parser as it was, so each serves every later
# call on its path
_parsers: dict[tuple[str, ...], argparse.ArgumentParser] = {}


def _parser_for(argv) -> argparse.ArgumentParser:
    path = _command_path(argv)
    parser = _parsers.get(path)
    if parser is None:
        parser = _parsers[path] = build_parser(path)
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code; argparse's own errors and ``--help`` raise
    ``SystemExit``.  Only the parsers on the command path the line names
    are built, the whole tree only for a line that names none, and each is
    kept for later calls on its path, so an in-process call pays only for
    its command."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _parser_for(argv).parse_args(argv)
            return args.func(args)
        except (ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RecursionError:
            # the tree walks that still recurse reach here on very deep terms
            print("error: the input nests too deeply", file=sys.stderr)
            return 2
        except MemoryError:
            # a rank slice too large to build; an uncapped process may be
            # killed by the system before Python can raise this
            print("error: out of memory; try a smaller rank or operad",
                  file=sys.stderr)
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
