"""The README's Python quick start and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from goodrings.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
# each "$ goodrings ..." line and the JSON line printed below it
CLI_EXAMPLES = re.findall(r"^\$ goodrings (.*)\n(.*)$", README.read_text(), re.M)


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # the block imports goodrings, so it runs against the package under test
    exec(compile(blocks[0], str(README), "exec"), {})


def _matches(expected, actual) -> bool:
    """JSON equality, except that the string "..." matches any string."""
    if expected == "...":
        return isinstance(actual, str)
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(_matches(v, actual[k]) for k, v in expected.items())
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(map(_matches, expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def test_readme_cli_examples_are_found():
    assert len(CLI_EXAMPLES) == 14


@pytest.mark.parametrize("command, printed", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(command, printed):
    code, text = run(shlex.split(command))
    assert _matches(json.loads(printed), json.loads(text))
