"""Every python code block and every CLI example in README.md runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from qchar.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)
# "$ qchar <args>" followed by the lines it prints, up to a blank line or fence
EXAMPLES = re.findall(r"^\$ qchar (.*)\n((?:(?!```).+\n)*)", TEXT, re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], "README.md block %d" % index, "exec"), {})


def test_readme_has_cli_examples():
    assert EXAMPLES


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_cli_example_prints_shown_output(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
