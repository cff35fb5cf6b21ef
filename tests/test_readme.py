"""The README's examples, run in-process: every `$ nildist ...` line of a
`text` block prints exactly the lines under it, and the Library block prints
what its comments say."""

import re
import shlex
from pathlib import Path

import pytest

from nildist.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _commands():
    """(command line, expected stdout lines) for every `$ nildist` line."""
    out = []
    for block in _blocks("text"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ nildist "):
                continue
            command, *lines = chunk.rstrip("\n").split("\n")
            out.append((command[2:], lines))
    return out


COMMANDS = _commands()


def test_readme_has_the_documented_examples():
    assert len(COMMANDS) >= 5
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_line_example(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_library_example(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    coords, verdict, estimate = capsys.readouterr().out.splitlines()
    assert coords == "(2, 0, -3)"
    assert verdict == "undistorted"
    assert abs(float(estimate) - 2.0) < 0.1
