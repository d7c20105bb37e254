"""The README's library quick tour, run as written."""

import ast
import re
from pathlib import Path

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
