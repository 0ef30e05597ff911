"""Traced service launcher: install the span wrappers, then serve.

Usage: ``python serve_traced.py TRACE_FILE [serve options...]`` with
the program's ``src`` directory on ``PYTHONPATH``.  Runs
``repro.cli.main(["serve", ...])`` and, once the service has shut
down, writes the process's spans to ``TRACE_FILE``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer                                   # noqa: E402


def main() -> int:
    trace_file = sys.argv[1]
    tracer.install()
    from repro.cli import main as cli_main
    rc = cli_main(["serve", *sys.argv[2:]])
    tracer.dump(trace_file)
    return rc


if __name__ == "__main__":
    sys.exit(main())
