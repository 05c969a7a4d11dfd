"""README's "Command line" block names exactly the CLI's commands and flags.

The block's first code fence holds one ``spanauto <command> ...`` line
per command.  Its commands, in order, must be the parser's, and every
``--flag`` on a line must be an option of that command's subparser.
"""

import re
from pathlib import Path

from spanauto.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines(text: str) -> list[list[str]]:
    """The words of each line of the first code fence after the "## Command line" heading."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    return [line.split() for line in block.splitlines()[1:] if line.strip()]


def test_readme_commands_are_the_parsers():
    lines = command_lines(README.read_text(encoding="utf-8"))
    assert {words[0] for words in lines} == {"spanauto"}
    commands = build_parser().commands
    assert [words[1] for words in lines] == list(commands)
    for words in lines:
        options = commands[words[1]]._option_string_actions
        flags = re.findall(r"(?<![\w-])--[a-z][a-z-]*", " ".join(words[2:]))
        missing = [flag for flag in flags if flag not in options]
        assert not missing, f"spanauto {words[1]}: README shows {missing}, which the command does not take"
