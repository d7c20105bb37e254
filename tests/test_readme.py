"""The README's library quick tour and command-line block, run as written."""

import ast
import re
import shlex
from pathlib import Path

from negpolylog.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_and_shows_its_values():
    namespace = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    # a line `expr  # literal` shows the value of expr
    for line in quick_tour().splitlines():
        code, _, comment = line.partition("#")
        try:
            shown = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == shown, line


# commands whose README comment is their exact output; every other comment describes it
SHOWN = {"li 2", "chi 2 --format latex", "cot-poly 1", "eval li 1 0.5"}


def command_lines() -> list[tuple[str, str]]:
    """(arguments, comment) for each `negpolylog ...` line of the command-line block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [(m.group(1), m.group(2) or "")
            for m in re.finditer(r"^negpolylog (.*?)\s*(?:# (.*))?$", block, re.M)]


def test_command_line_block_runs_and_shows_its_outputs(capsys):
    lines = command_lines()
    assert SHOWN <= {args for args, _ in lines}
    for args, comment in lines:
        assert main(shlex.split(args)) == 0, args
        out = capsys.readouterr().out
        if args in SHOWN:
            assert out == comment + "\n", args
