"""Run the loccgate CLI with tracing on.

Usage: python perfbench/cli_traced.py <loccgate arguments>

Behaves as ``python -m loccgate.cli``; the span report is written to stderr
after ``tracing.MARKER``, once the command has finished.
"""

import json
import sys

import tracing
from loccgate import cli


def main() -> None:
    tracer = tracing.install()
    code = 0
    try:
        cli.main(args=sys.argv[1:], prog_name="loccgate")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stderr.write(tracing.MARKER + json.dumps(tracer.report()) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
