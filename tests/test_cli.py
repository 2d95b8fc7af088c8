import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opergraph import cli
from opergraph.cli import load_fixtures, main, verify_fixtures

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_paths_series_stdout(capsys):
    code, out = run(capsys, "paths-series", "--alphabet", "a:2", "--graph", "u",
                    "--max", "7")
    assert code == 0
    assert out == "1,1,2,6,24,120,720,5040\n"


def test_paths_series_json(capsys):
    code, out = run(capsys, "paths-series", "--alphabet", "a:2", "--graph", "v",
                    "--max", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"graph": "v", "coefficients": [1, 1, 2, 5, 14, 42]}


def test_trees_listing_deterministic(capsys):
    code, first = run(capsys, "trees", "--alphabet", "a:2,c:3", "--degree", "2", "--list")
    assert code == 0
    assert first.splitlines()[0] == "10"
    code, second = run(capsys, "trees", "--alphabet", "a:2,c:3", "--degree", "2", "--list")
    assert first == second


def test_hook_commands(capsys):
    code, out = run(capsys, "hook", "--alphabet", "a:2", "--degree", "3")
    assert code == 0
    rows = dict(line.rsplit(" ", 1) for line in out.splitlines())
    assert rows["a[a[a[*,*],*],*]"] == "1"
    assert sum(int(v) for v in rows.values()) == 6
    code, out = run(capsys, "twisted-hook", "--alphabet", "a:2,c:3", "--degree", "2")
    assert code == 0
    assert sum(int(line.rsplit(" ", 1)[1]) for line in out.splitlines()) == 10


def test_a_hook_call_leaves_its_trees_behind_it(capsys):
    """The universe a command builds holds its slices, and the trees go with
    it: after the call only a little of what it allocated is still held.
    The letters are a:2,c:3 renamed, so that no other test has built these
    trees before."""
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["hook", "--alphabet", "ha:2,hc:3", "--degree", "6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 34970
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 5 * 2 ** 20


def test_check_duality_free_passes(capsys):
    code, out = run(capsys, "check-duality", "--alphabet", "a:2,c:3", "--max", "4")
    assert code == 0
    assert out.startswith("ok:")


def test_check_duality_discovery(capsys):
    code, out = run(capsys, "check-duality", "--alphabet", "a:2", "--max", "2",
                    "--discover-phi")
    assert code == 0
    assert "phi * = 1" in out


def test_check_duality_dias_uv_fails(capsys):
    code, out = run(capsys, "check-duality", "--operad", "dias", "--pair", "uv",
                    "--max", "3")
    assert code == 1
    assert "10" in out


def test_check_duality_dias_uu_passes(capsys):
    code, out = run(capsys, "check-duality", "--operad", "dias", "--pair", "uu",
                    "--max", "4")
    assert code == 0


def test_poset_commands(capsys):
    code, out = run(capsys, "poset", "meet", "--alphabet", "e:1,a:2,c:3",
                    "--left", "c[a[*,*],*,a[e[*],*]]",
                    "--right", "c[e[*],a[*,*],a[*,*]]")
    assert code == 0 and out.strip() == "c[*,*,a[*,*]]"
    code, out = run(capsys, "poset", "join", "--alphabet", "a:2,b:2",
                    "--left", "a[*,*]", "--right", "b[*,*]")
    assert code == 0 and out.strip() == "no upper bound"
    code, out = run(capsys, "poset", "interval", "--alphabet", "a:2",
                    "--lower", "*", "--upper", "a[a[*,*],*]", "--elements")
    assert code == 0
    assert out.splitlines() == ["3", "*", "a[*,*]", "a[a[*,*],*]"]


def test_interval_series_cli(capsys):
    code, out = run(capsys, "poset", "interval-series", "--alphabet", "a:2",
                    "--max", "5", "--q", "1")
    assert code == 0
    assert out.strip() == "1,2,6,21,80,322"
    code, out = run(capsys, "poset", "interval-series", "--alphabet", "a:2",
                    "--max", "2")
    assert code == 0
    assert out.strip() == "1 + (1 + q)t + 2(1 + q + q^2)t^2"


def test_stringy_cli(capsys):
    code, out = run(capsys, "poset", "stringy", "--alphabet", "a:2,c:3", "--max", "7")
    assert code == 0
    assert out.strip() == "1,2,10,50,250,1250,6250,31250"


def test_operad_commands(capsys):
    code, out = run(capsys, "operad", "dias", "up", "--element", "10")
    assert code == 0
    assert out.strip() == "1*101 + 3*110"
    code, out = run(capsys, "operad", "motz", "v", "--element", "010")
    assert code == 0
    assert out.strip() == "1*0100 + 1*01010 + 1*0110 + 1*01210"
    code, out = run(capsys, "operad", "comp", "v-oracle", "--element", "0")
    assert code == 0
    assert out.strip() == "1*00 + 1*01"
    code, out = run(capsys, "operad", "motz", "generators", "--arity-max", "4")
    assert code == 0
    assert out.splitlines() == ["00", "010"]
    code, out = run(capsys, "operad", "comp", "hook", "--max", "3")
    assert code == 0
    rows = dict(line.rsplit(" ", 1) for line in out.splitlines())
    assert rows["0110"] == "6"


@pytest.mark.parametrize("row, out", [
    ("up", "100000000000000000000*100000000000000000001"),
    ("v", "1*100000000000000000001"),
], ids=["up", "v"])
def test_chain_rows_of_an_unbounded_integer(capsys, row, out):
    """The chain's elements are ints of any size, printed in full."""
    code, got = run(capsys, "operad", "as", row, "--element", "100000000000000000000")
    assert code == 0
    assert got == out + "\n"


def test_export_dot_counts(capsys):
    code, out = run(capsys, "export-dot", "--alphabet", "a:2", "--graph", "u",
                    "--max", "3")
    assert code == 0
    node_lines = [ln for ln in out.splitlines()
                  if ln.strip().endswith('";') and "->" not in ln]
    assert len(node_lines) == 1 + 1 + 2 + 5
    code, second = run(capsys, "export-dot", "--alphabet", "a:2", "--graph", "u",
                       "--max", "3")
    assert out == second


def test_export_json_roundtrip(capsys):
    code, out = run(capsys, "export-dot", "--operad", "comp", "--graph", "v",
                    "--max", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    ranks = {}
    for node in payload["nodes"]:
        ranks[node["rank"]] = ranks.get(node["rank"], 0) + 1
    assert ranks == {0: 1, 1: 2, 2: 4}
    assert all(e["w"] == 1 for e in payload["edges"])


def test_element_errors_exit_2(capsys):
    code = main(["operad", "comp", "up", "--element", "10"])
    assert code == 2
    code = main(["poset", "meet", "--alphabet", "a:2", "--left", "zz", "--right", "*"])
    assert code == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["paths-series", "--alphabet", "a:2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_bad_alphabet_exits_2(capsys):
    assert main(["trees", "--alphabet", "zz", "--degree", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_reserved_slot_letter_names_are_rejected(capsys):
    """Letter names are lowercase identifiers, so ``#3`` is a usage error."""
    assert main(["poset", "interval-series", "--alphabet", "#3:3", "--max", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid letter name '#3'\n"


def test_interval_series_scales_to_order_60():
    """The series grows one t-degree at a time, so order 60 finishes far
    inside the timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "opergraph.cli", "poset", "interval-series",
                           "--alphabet", "a:2", "--max", "60", "--q", "1"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    terms = [int(c) for c in proc.stdout.strip().split(",")]
    assert len(terms) == 61
    pinned = next(fx for fx in load_fixtures() if fx["kind"] == "interval_q1")
    assert terms[:8] == pinned["terms"]


PEAK_RSS_CHILD = """
import resource, sys
from opergraph.cli import main
code = main(sys.argv[1:])
try:  # the high-water mark of this address space alone
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak //= 1024 if sys.platform == "darwin" else 1
print(peak, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv,stdout_start,peak_mib", [
    (["check-duality", "--operad", "fcat:3", "--max", "6"],
     "ok: diagonal duality verified on 62040 elements up to rank 6\n", 100),
    (["paths-series", "--alphabet", "a:2,c:3", "--graph", "u", "--max", "400"],
     "1,2,10,82,938,", 32),
], ids=["fcat3-check-6", "u-paths-a2c3-400"])
def test_cold_call_peak_stays_small(argv, stdout_start, peak_mib):
    """Two cold calls that keep one rank of rows at a time.  The fcat:3 star
    rows are closed-form, so the rank-6 reverse-edge table (53,820 words) is
    never built, and its up rows come from the rank stream, so no degree
    slice is built either; its stdout is pinned whole.  The U path counts keep one arity row of O(d) ints, not a
    table over (degree, arity), so degree 400 stays under 32 MB.

    The child reads its peak from VmHWM where it can: on Linux ru_maxrss
    keeps the high-water mark of the process that spawned it across exec,
    which here is the whole test run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(stdout_start)
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < peak_mib * 1024


def test_check_duality_empty_alphabet(capsys):
    code, out = run(capsys, "check-duality", "--alphabet", "", "--max", "2")
    assert code == 0
    assert out == "ok: diagonal duality verified on 1 elements up to rank 2\n"


def test_check_duality_alphabet_self_pair_fails(capsys):
    code, out = run(capsys, "check-duality", "--alphabet", "a:2,b:2", "--pair", "uu",
                    "--max", "2", "--json")
    assert code == 1
    assert json.loads(out)["witness"] == "a[*,*]"


def test_verify_fixtures_filter(capsys):
    code, out = run(capsys, "verify-fixtures", "--filter", "dias-hook")
    assert code == 0
    assert "PASS dias-hook" in out
    results = verify_fixtures("twisted-ac")
    assert len(results) == 1 and results[0][1]


@pytest.mark.parametrize("argv", [
    ["check-duality", "--alphabet", "a:2", "--max", "-1"],
    ["operad", "comp", "hook", "--max", "-1"],
    ["operad", "fcat:2", "generators", "--arity-max", "-3"],
    ["poset", "interval-series", "--alphabet", "a:2", "--max", "-1"],
    ["poset", "stringy", "--alphabet", "a:2", "--max", "-1"],
    ["paths-series", "--alphabet", "a:2", "--graph", "u", "--max", "-1"],
    ["export-dot", "--alphabet", "a:2", "--graph", "v", "--max", "-2"],
    ["trees", "--alphabet", "a:2", "--degree", "-1"],
    ["hook", "--alphabet", "a:2", "--degree", "-1"],
    ["twisted-hook", "--alphabet", "a:2", "--degree", "-1"],
], ids=lambda argv: " ".join(argv))
def test_negative_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


def test_zero_bounds_are_accepted(capsys):
    code, out = run(capsys, "check-duality", "--alphabet", "a:2", "--max", "0")
    assert (code, out) == (0, "ok: diagonal duality verified on 1 elements up to rank 0\n")
    code, out = run(capsys, "operad", "comp", "hook", "--max", "0")
    assert (code, out) == (0, "0 1\n")


def test_deep_degree_slice_does_not_recurse(capsys):
    """Slices are filled bottom-up, so a unary chain far deeper than the
    recursion limit is enumerated."""
    code, out = run(capsys, "trees", "--alphabet", "e:1", "--degree", "3000")
    assert (code, out) == (0, "1\n")


GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "cli_stdout.json").read_text())
HASH_ORDER_CASES = [case for case in GOLDEN if case["argv"][:2] in (
    ["trees", "--alphabet"], ["poset", "interval"]) or "--discover-phi" in case["argv"]]


@pytest.mark.parametrize("case", HASH_ORDER_CASES, ids=lambda case: " ".join(case["argv"]))
def test_stdout_does_not_depend_on_the_hash_seed(case):
    """Trees hash by identity, so a set iterated on the way to stdout would
    show up here as output that changes between processes.  Failing checks
    (exit 1) are compared too: their witness is printed on stdout."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "opergraph.cli", *case["argv"]],
                              capture_output=True, text=True, env=env)
        outputs.append((proc.returncode, proc.stdout))
    assert outputs == [(case["code"], case["stdout"])] * 2


def test_a_closed_stdout_ends_quietly():
    """A reader that closes the pipe (``| head``) ends the CLI with exit 1,
    the code Python gives a broken pipe, and no traceback.  The read end is
    closed before the process starts, so the first flush already fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "opergraph.cli", "trees", "--alphabet",
                               "a:2", "--degree", "2", "--list"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(*args):
    """The console script in a fresh process capped at 1 GB of address space."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "opergraph.cli", *args],
                          capture_output=True, text=True, env=env, preexec_fn=_cap_memory)


@pytest.mark.parametrize("m, code", [("10000", 0), ("10001", 2), ("99999999999999999999", 2)])
def test_fcat_m_past_the_limit_is_a_usage_error(m, code):
    """fcat:<m> builds its m + 1 generators at once, so an m past the limit is
    refused before anything is built.  Each run is capped at 1 GB of address
    space, where building too many generators fails fast instead of taking
    the machine's memory."""
    proc = _run_capped("operad", f"fcat:{m}", "up", "--element", "0")
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr == f"error: fcat:<m> takes m up to 10000, got 'fcat:{m}'\n"
    else:
        assert proc.stderr == ""
        assert len(proc.stdout.split(" + ")) == 10001


def test_running_out_of_memory_is_a_usage_error():
    """Rank 2 of fcat:10000 holds on the order of 10^8 words, far past the
    cap: the run ends with one error line and exit 2, not a traceback."""
    proc = _run_capped("operad", "fcat:10000", "hook", "--max", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory; try a smaller rank or operad\n"


def test_deep_duality_check_does_not_recurse(capsys):
    """Grafting walks down to the leaf and rebuilds upward without recursion,
    so the unary chain checks far past the recursion limit."""
    code, out = run(capsys, "check-duality", "--alphabet", "e:1", "--max", "1500")
    assert (code, out) == (0, "ok: diagonal duality verified on 1501 elements "
                              "up to rank 1500\n")


@pytest.mark.parametrize("command", ["hook", "twisted-hook"])
def test_deep_hooks_do_not_recurse(capsys, command):
    """Both hook formulas fold the subtrees bottom-up with an explicit stack."""
    code, out = run(capsys, command, "--alphabet", "e:1", "--degree", "1500")
    assert code == 0
    assert out == "e[" * 1500 + "*" + "]" * 1500 + " 1\n"


DEEP = "e[" * 2000 + "*" + "]" * 2000


@pytest.mark.parametrize("argv, out", [
    (["poset", "meet", "--alphabet", "e:1", "--left", DEEP, "--right", "*"], "*\n"),
    (["poset", "join", "--alphabet", "e:1", "--left", DEEP, "--right", "*"], DEEP + "\n"),
], ids=["meet", "join"])
def test_deep_terms_parse(capsys, argv, out):
    """The parser is one loop over the text, so a term past the recursion
    limit parses; meet and join against the leaf end at the root."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


@pytest.mark.parametrize("argv", [
    ["poset", "meet", "--alphabet", "e:1", "--left", DEEP, "--right", DEEP],
    ["poset", "join", "--alphabet", "e:1", "--left", DEEP, "--right", DEEP],
    ["poset", "interval", "--alphabet", "e:1", "--lower", "*", "--upper", DEEP],
], ids=lambda argv: argv[1])
def test_deep_terms_are_usage_errors(capsys, argv):
    """The prefix-order walks (meet, join and the interval count) still
    recurse once per level; a pair that walks past the recursion limit is a
    one-line usage error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input nests too deeply\n"


@pytest.mark.parametrize("argv, message", [
    (["trees", "--alphabet", "a 2 3", "--degree", "1"],
     "expected 'name arity', got 'a 2 3'"),
    (["trees", "--alphabet", "a x", "--degree", "1"],
     "expected 'name arity' with an integer arity, got 'a x'"),
    (["trees", "--alphabet", "a:x", "--degree", "1"],
     "expected name:arity with an integer arity, got 'a:x'"),
    (["operad", "fcat:x", "hook", "--max", "1"],
     "expected fcat:<m> with an integer m >= 0, got 'fcat:x'"),
    (["operad", "comp", "up", "--element", "0a"],
     "expected a word such as 0110 or 0,12,1, got '0a'"),
    (["operad", "as", "up", "--element", "x"], "'x' is not an element of as"),
    (["operad", "as", "up", "--element", "²"], "'²' is not an element of as"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_malformed_text_names_itself_and_the_expected_form(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_fixtures_without_a_match_exits_2(capsys):
    assert main(["verify-fixtures", "--filter", "zzz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no fixtures match 'zzz'\n"


def test_verify_fixtures_json(capsys):
    code, out = run(capsys, "verify-fixtures", "--filter", "hook", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["id"] for row in rows] == [fx["id"] for fx, *_ in verify_fixtures("hook")]
    assert rows and all(set(row) == {"id", "ok", "expected", "actual"} and row["ok"]
                        for row in rows)


# -- the exit-code contract on random command lines --------------------------------

ALPHABETS = st.sampled_from(["a:2", "a:2,c:3", "e:1,a:2,c:3", "e:1", "c:3", "", "a:", "a:x",
                             "a:2,a:3", ":2", "a:-1", "a:0", "a:2 c:3", "a:2,", "#5:2"])
TERMS = st.sampled_from(["*", "a[*,*]", "a[*,a[*,*]]", " a [ * , e[*] ] ", "c[*,*,*]", "e[*]",
                         "a[*", "a[*,*]]", "", "b[*,*]", "a[*]", "a[*,*", "[*]", "*,*"])
OPERADS = st.sampled_from(["as", "dias", "comp", "motz", "fcat:0", "fcat:2", "FCAT:1",
                           "fcat:", "fcat:x", "fcat:-1", "zzz", ""])
WORDS = st.sampled_from(["1", "3", "0", "-1", "01", "10", "011", "010", "0110", "0,1,0",
                         "0120", "2", "", "x", "0,x", "01a", "²"])
BOUNDS = st.sampled_from(["0", "1", "2", "3", "-1", "x", "1.5", ""])
FILTERS = st.sampled_from(["theta", "stringy", "hook", "interval", "duality-as", "selfdual",
                           "zzz"])


def _cat(*parts):
    """One argv from fixed word lists and strategies of word lists."""
    return st.tuples(*(part if isinstance(part, st.SearchStrategy) else st.just(part)
                       for part in parts)).map(lambda words: sum(words, []))


def _arg(flag, values):
    return values.map(lambda value: [flag, value])


def _opt(*flags):
    return st.sampled_from([[]] + [[flag] for flag in flags])


def _choice(*values):
    return st.sampled_from(values)


TARGETS = _arg("--alphabet", ALPHABETS) | _arg("--operad", OPERADS)
COMMANDS = st.one_of(
    _cat(["trees"], _arg("--alphabet", ALPHABETS), _arg("--degree", BOUNDS),
         _opt("--list"), _opt("--json")),
    _cat(_choice(["hook"], ["twisted-hook"]), _arg("--alphabet", ALPHABETS),
         _arg("--degree", BOUNDS), _opt("--json")),
    _cat(["paths-series"], _arg("--alphabet", ALPHABETS), _arg("--graph", _choice("u", "v", "w")),
         _arg("--max", BOUNDS), _opt("--json")),
    _cat(["check-duality"], TARGETS, _choice([], ["--pair", "uv"], ["--pair", "uu"]),
         _arg("--max", BOUNDS), _opt("--discover-phi"), _opt("--json")),
    _cat(["poset"], _choice(["meet"], ["join"]), _arg("--alphabet", ALPHABETS),
         _arg("--left", TERMS), _arg("--right", TERMS), _opt("--json")),
    _cat(["poset", "interval"], _arg("--alphabet", ALPHABETS), _arg("--lower", TERMS),
         _arg("--upper", TERMS), _opt("--elements"), _opt("--json")),
    _cat(["poset", "interval-series"], _arg("--alphabet", ALPHABETS), _arg("--max", BOUNDS),
         _choice([], *(["--q", q] for q in ("-2", "0", "1", "3", "x"))), _opt("--json")),
    _cat(["poset", "stringy"], _arg("--alphabet", ALPHABETS), _arg("--max", BOUNDS),
         _opt("--json")),
    _cat(["operad"], OPERADS.map(lambda op: [op]), st.one_of(
        _cat(_choice(["up"], ["v"], ["v-oracle"]), _arg("--element", WORDS)),
        _cat(["hook"], _arg("--max", BOUNDS)),
        _cat(["generators"], _arg("--arity-max", BOUNDS))), _opt("--json")),
    _cat(["export-dot"], TARGETS, _arg("--graph", _choice("u", "v")), _arg("--max", BOUNDS),
         _opt("--json")),
    _cat(["verify-fixtures"], _arg("--filter", FILTERS), _opt("--json")),
    _cat(_choice([], ["trees"], ["poset"], ["poset", "meet"], ["operad", "as"]), ["--help"]),
)
# half of them with one word dropped, to reach argparse's own errors too
ARGVS = COMMANDS | st.tuples(COMMANDS, st.integers(0, 12)).map(
    lambda drawn: drawn[0][:drawn[1]] + drawn[0][drawn[1] + 1:])


@settings(max_examples=200, deadline=None)
@given(ARGVS)
def test_random_command_lines_keep_the_exit_code_contract(argv):
    """Every command line ends in exit 0, 1 or 2 (or argparse's own exit 0
    or 2), with no traceback on stderr and nothing on stdout for exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv


# -- one parser per command path ---------------------------------------------------

def test_main_builds_the_parser_once(monkeypatch, capsys):
    """Each command path's parser is built on its first call and kept: a
    success, an argparse error and a ValueError exit on two paths, and two
    lines that name no command, make three builds."""
    build, builds = cli.build_parser, []

    def counting_build(path=()):
        builds.append(path)
        return build(path)

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parsers", {})
    assert main(["trees", "--alphabet", "a:2", "--degree", "2"]) == 0
    for argv, code in ((["paths-series", "--alphabet", "a:2"], 2), (["no-such-command"], 2),
                       (["-h"], 0)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
    assert main(["trees", "--alphabet", "zz", "--degree", "2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert builds == [("trees",), ("paths-series",), ()]
    assert build() is not build()


def _child(script, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=30)


# counts every argparse.ArgumentParser made in a fresh process, subparsers
# included, up to the import of the CLI and then after one main call
COUNTING_CHILD = """
import argparse, contextlib, io, sys
made = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    made.append(None)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import opergraph.cli as cli
print(len(made))
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(len(made))
"""


def test_importing_the_cli_builds_no_parser():
    proc = _child(COUNTING_CHILD, "trees", "--alphabet", "a:2", "--degree", "0")
    assert proc.stdout.splitlines()[0] == "0", proc.stderr


# the modules whose functions perfbench looks up by name, some of them only
# inside a timed operation
BENCHMARK_MODULES = ("opergraph.free_graphs", "opergraph.operads", "opergraph.tree",
                     "opergraph.tree_poset", "opergraph.poly")


def test_importing_the_cli_loads_every_module_the_benchmark_looks_up():
    """perfbench imports the CLI in its set-up, so a module that import
    leaves out would be imported inside the first timed operation that
    looks it up, and counted in that operation's time."""
    proc = _child("import sys, opergraph.cli\n"
                  "print(*(m for m in sys.argv[1:] if m not in sys.modules))",
                  *BENCHMARK_MODULES)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


@pytest.mark.parametrize("argv, parsers", [
    (["check-duality", "--operad", "comp", "--max", "2"], 2),
    (["poset", "meet", "--alphabet", "a:2", "--left", "*", "--right", "*"], 3),
    (["operad", "as", "up", "--element", "3"], 3),
    (["--help"], 20),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_a_cold_call_builds_only_the_parsers_on_its_path(argv, parsers):
    """A command line builds the top parser and one per word of its command
    path; only a line that names no command builds all 20."""
    proc = _child(COUNTING_CHILD, *argv)
    assert proc.stdout.splitlines() == ["0", str(parsers)], proc.stderr


def _parse(parser, argv):
    """What one parse gives: the namespace, handler included, or argparse's
    exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "parsed", vars(parser.parse_args(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


# --help at every level, -h before a command, a word after a leaf command, an
# invalid choice at each level, groups without their subcommand or selector,
# and words that look like options where a command or selector is expected
PATH_CASES = [
    ["--help"], ["trees", "--help"], ["hook", "--help"], ["twisted-hook", "--help"],
    ["paths-series", "--help"], ["check-duality", "--help"], ["poset", "--help"],
    ["poset", "meet", "--help"], ["poset", "join", "--help"], ["poset", "interval", "--help"],
    ["poset", "interval-series", "--help"], ["poset", "stringy", "--help"],
    ["operad", "as", "--help"], ["operad", "as", "up", "--help"],
    ["operad", "as", "v", "--help"], ["operad", "as", "v-oracle", "--help"],
    ["operad", "as", "hook", "--help"], ["operad", "as", "generators", "--help"],
    ["export-dot", "--help"], ["verify-fixtures", "--help"],
    ["-h", "trees"], ["-h", "check-duality", "--operad", "comp", "--max", "2"],
    ["poset", "-h", "meet"], ["operad", "as", "-h", "up"], ["operad", "-h", "as", "up"],
    ["trees", "--alphabet", "a:2", "--degree", "2", "extra"],
    ["check-duality", "--operad", "comp", "--max", "2", "extra"],
    ["poset", "meet", "--alphabet", "a:2", "--left", "*", "--right", "*", "extra"],
    ["operad", "as", "up", "--element", "3", "extra"],
    ["zzz"], ["poset", "zzz"], ["operad", "as", "zzz"],
    ["check-duality", "--operad", "comp", "--pair", "vu", "--max", "2"],
    ["paths-series", "--alphabet", "a:2", "--graph", "w", "--max", "2"],
    [], ["poset"], ["operad"], ["operad", "as"], ["operad", "up", "--element", "3"],
    ["check-duality", "--operad", "comp", "--max", "x"], ["check-duality", "--max", "2"],
    ["check-duality", "--alphabet", "a:2", "--operad", "comp", "--max", "2"],
    ["--json", "trees", "--alphabet", "a:2", "--degree", "2"],
    ["poset", "--json", "stringy", "--alphabet", "a:2", "--max", "2"],
    ["operad", "--json", "up", "--element", "3"], ["operad", "-1", "up", "--element", "3"],
    ["operad", "--element", "hook", "--max", "2"], ["operad", "", "hook", "--max", "1"],
    ["operad", "as", "--json", "up", "--element", "3"], ["--", "trees"],
    ["trees", "--alphabet", "a:2", "--degree", "2", "--json", "--list"],
]


@pytest.mark.parametrize("argv", PATH_CASES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_a_command_path_parser_parses_as_the_whole_tree(argv):
    """The parser built for a line's command path gives the namespace, or
    the exit code, help text and error, that the whole tree gives."""
    path_parser = cli.build_parser(cli._command_path(argv))
    assert _parse(path_parser, argv) == _parse(cli.build_parser(), argv)


@settings(max_examples=100, deadline=None)
@given(st.lists(ARGVS, min_size=2, max_size=5))
def test_the_held_parser_carries_nothing_between_calls(argvs):
    """Command lines fed in turn to the parsers main holds parse, fail and
    print help exactly as each would on a new parser for the whole tree."""
    for argv in argvs:
        assert _parse(cli._parser_for(argv), argv) == _parse(cli.build_parser(), argv), argv
