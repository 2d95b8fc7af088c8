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
# series, and the fixture table
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
