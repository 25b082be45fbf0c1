"""Every `$ fatpoints ...` line in README.md's fenced blocks runs through
`cli.main` and exits 0; where the README shows output lines under a command,
they equal its output with trailing spaces stripped."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from fatpoints.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ fatpoints "


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, the output lines shown under it) of each prompt line in a fenced block."""
    examples: list[tuple[list[str], list[str]]] = []
    shown = None  # the output lines of the last prompt line in the open block
    fenced = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith(PROMPT):
            shown = []
            examples.append((shlex.split(line[len(PROMPT):], comments=True), shown))
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_shows_the_cli_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "dim", "seq", "suite", "cremona", "identif", "collide", "castelnuovo", "suite"]
    assert [argv[0] for argv, shown in EXAMPLES if shown] == ["dim", "seq", "cremona", "collide"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_replays(argv, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    if shown:
        assert [line.rstrip() for line in out.getvalue().splitlines()] == shown
