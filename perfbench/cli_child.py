"""Run one ``negpolylog`` command with spans recorded, for the traced CLI pass.

Usage: python3 perfbench/cli_child.py SPANS_FILE ARG...

Behaves as ``python -m negpolylog ARG...`` (same stdout, stderr and exit
code) and writes the spans of the command to SPANS_FILE when it ends.
"""

import runpy
import sys
from pathlib import Path

import negpolylog.cli  # noqa: F401  (every module must be loaded before the wrappers go in)
import spans


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.op_id = 0
    sys.argv = ["negpolylog", *args]
    code = 0
    try:
        runpy.run_module("negpolylog", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.restore()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
