"""The README's library quick start runs and prints what its comments say.

Each ``# ...`` line of the ``python`` block is the stdout line of the print
above it, so the block's comments, in order, are its whole expected stdout.
"""
import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_comments():
    block = quick_start()
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected  # the block documents its output
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
