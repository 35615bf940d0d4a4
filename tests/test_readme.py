"""The README's python blocks run as written, and its command lines parse."""

import shlex
from pathlib import Path

from sinklap.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text):
    """(info string, body) of each fenced block, fences paired in order."""
    blocks, info, body = [], None, []
    for line in text.splitlines():
        if info is None:
            if line.startswith("```"):
                info, body = line[3:].strip(), []
        elif line.strip() == "```":
            blocks.append((info, "\n".join(body)))
            info = None
        else:
            body.append(line)
    return blocks


def test_python_blocks_run(capsys):
    blocks = [body for info, body in fenced_blocks(README.read_text())
              if info == "python"]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_lines_parse():
    commands = [
        line
        for info, body in fenced_blocks(README.read_text())
        if info == ""
        for line in body.replace("\\\n", " ").splitlines()
        if line.startswith("sinklap ")
    ]
    assert commands
    for line in commands:
        parse_config(shlex.split(line)[1:])
