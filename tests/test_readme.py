"""The README's command-line section against the code it describes.

Each ``w22 ...`` example in the command block is run in-process through
``w22.cli.main`` and must print exactly the line shown under it, and the
verb table must list exactly the verbs that ``build_parser`` registers.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from w22.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def examples():
    """(command, expected line) pairs from the section's code block."""
    block = re.search(r"```\n(.*?)```", command_section(), re.S).group(1)
    lines = block.splitlines()
    return [
        (line, lines[k + 1])
        for k, line in enumerate(lines)
        if line.startswith("w22 ")
    ]


def test_the_section_has_examples():
    assert len(examples()) >= 3


@pytest.mark.parametrize("command, expected", examples())
def test_example_prints_the_line_shown(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_verb_table_lists_the_registered_verbs():
    table = re.findall(r"^\| `([a-z-]+)` \|", command_section(), re.M)
    (verbs,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert table == list(verbs)
