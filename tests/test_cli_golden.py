"""Byte-for-byte stdout and exit codes of the documented CLI calls.

The golden file holds every call of the README's "Command line" section plus
a few outputs no other test pins in full.  Rewrite it only when a change of
output is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from opergraph.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_stdout.json"
README = HERE.parent / "README.md"

# full DOT and JSON exports (weighted edges and operad elements included),
# the phi discovery table of an alphabet, JSON duality reports on mixed
# arities and on a failing pair, operad hooks and up rows, a twisted path
# series, the fixture table, the word operads' up rows and phi discovery, an
# interval count, a meet and a join of terms written with spaces, and the
# hooks and duality checks that read star rows from reverse-edge tables
# (motz and dias twisted, and the two self pairs that fail); then the --json
# output of every subcommand the lines above print only plain, an oracle row,
# a join with no upper bound, an unevaluated interval series and operad
# generators in plain text; then path series whose top rank has trees the
# rank below never shows (three letter arities), a degree-0 series and the
# series of the empty alphabet; then the empty alphabet's interval series,
# whose trailing zeros at q = 0 come from --max alone; last a failing fcat:6
# self pair, whose rank 2 comes out of canonical order (a letter reaches 10),
# so its witness is the first failure in the canonical walk of that rank
EXTRA = [
    "export-dot --alphabet a:2 --graph v --max 3",
    "export-dot --alphabet a:2 --graph u --max 2 --json",
    "export-dot --operad as --graph u --max 4",
    "export-dot --operad motz --graph v --max 3 --json",
    "check-duality --alphabet a:2 --max 3 --discover-phi",
    "check-duality --alphabet a:2,c:3 --max 3 --json",
    "check-duality --alphabet a:2,b:2 --pair uu --max 3 --json",
    "operad motz hook --max 4",
    "operad fcat:2 up --element 012",
    "paths-series --alphabet a:2,c:3 --graph v --max 6",
    "verify-fixtures",
    "operad fcat:3 up --element 0132",
    "operad dias up --element 101",
    "operad comp up --element 0110",
    "operad motz up --element 0110",
    "operad as up --element 4",
    "check-duality --operad comp --max 4 --discover-phi",
    "check-duality --operad fcat:2 --max 3 --discover-phi --json",
    "check-duality --operad as --max 5 --discover-phi",
    "poset interval --alphabet e:1,a:2,c:3 --lower 'a[*,c[*,*,*]]' "
    "--upper 'a[e[a[*,*]],c[a[*,*],e[*],*]]'",
    "poset meet --alphabet e:1,a:2,c:3 --left ' c[ a[*, *], * , a[e[*],*] ] ' "
    "--right 'c[e[ * ],a[*,*] , a[*,*]]'",
    "poset join --alphabet e:1,a:2,c:3 --left 'a[ *, c[*, *, *] ]' "
    "--right 'a [e[*], c[ *,e[ a[*,*] ] , * ] ]'",
    "operad as hook --max 5",
    "operad dias hook --max 4",
    "check-duality --operad motz --max 4 --discover-phi --json",
    "check-duality --operad dias --pair uu --max 5 --discover-phi",
    "check-duality --operad motz --pair uu --max 4 --discover-phi",
    "check-duality --operad comp --pair uu --max 4 --discover-phi",
    "trees --alphabet a:2,c:3 --degree 2 --list --json",
    "hook --alphabet a:2 --degree 3 --json",
    "twisted-hook --alphabet a:2,c:3 --degree 2 --json",
    "paths-series --alphabet a:2 --graph u --max 5 --json",
    "poset meet --alphabet a:2,c:3 --left 'a[c[*,*,*],*]' --right 'a[*,a[*,*]]' --json",
    "poset join --alphabet a:2,c:3 --left 'a[c[*,*,*],*]' --right 'a[*,a[*,*]]' --json",
    "poset interval --alphabet a:2 --lower '*' --upper 'a[a[*,*],*]' --elements --json",
    "poset interval-series --alphabet a:2,c:3 --max 4 --q 2 --json",
    "poset interval-series --alphabet a:2 --max 3 --json",
    "poset stringy --alphabet a:2,c:3 --max 5 --json",
    "operad motz up --element 010 --json",
    "operad motz v --element 010 --json",
    "operad motz v-oracle --element 010 --json",
    "operad comp hook --max 3 --json",
    "operad fcat:2 generators --arity-max 3 --json",
    "verify-fixtures --filter hook --json",
    "operad motz v-oracle --element 010",
    "poset join --alphabet a:2,b:2 --left 'a[*,*]' --right 'b[*,*]'",
    "poset join --alphabet a:2,b:2 --left 'a[*,*]' --right 'b[*,*]' --json",
    "poset interval-series --alphabet a:2,c:3 --max 4",
    "operad motz generators --arity-max 5",
    "paths-series --alphabet e:1,a:2,c:3 --graph v --max 6",
    "paths-series --alphabet e:1,a:2,c:3 --graph u --max 6 --json",
    "paths-series --alphabet a:2 --graph v --max 0",
    "paths-series --alphabet '' --graph v --max 3",
    "poset interval-series --alphabet '' --max 3",
    "poset interval-series --alphabet '' --max 3 --q 0",
    "check-duality --operad fcat:6 --pair uu --max 2",
    "check-duality --operad fcat:6 --pair uu --max 2 --json",
]


def golden_calls() -> list[list[str]]:
    """The README's calls (continuations joined, comments and output
    redirections dropped), then EXTRA."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    calls = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "opergraph":
            calls.append(words[1:words.index(">")] if ">" in words else words[1:])
    return calls + [shlex.split(text) for text in EXTRA]


CASES = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_call():
    assert [case["argv"] for case in CASES] == golden_calls()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_golden(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


if __name__ == "__main__":
    cases = []
    for argv in golden_calls():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        cases.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
