"""The README's documented CLI output matches what the CLI prints.

Every line of a ``sh`` block in README.md that runs ``cablejones`` and is
followed by a ``# <output>`` line is run through ``cli.main``; its standard
output must be that text.
"""

import re
import shlex
from pathlib import Path

import pytest

from cablejones.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_commands() -> list[tuple[str, str]]:
    """(command, expected output) for each documented CLI example."""
    cases = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        lines = block.splitlines()
        for line, after in zip(lines, lines[1:]):
            if line.startswith("cablejones ") and after.startswith("# "):
                cases.append((line, after[2:]))
    return cases


CASES = documented_commands()


def test_the_readme_documents_outputs():
    commands = [command for command, _ in CASES]
    assert any("jones " in c and "--colors 2" in c for c in commands)
    assert any(c.startswith("cablejones eval ") for c in commands)


@pytest.mark.parametrize("command, expected", CASES, ids=[c for c, _ in CASES])
def test_documented_output(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.strip() == expected
