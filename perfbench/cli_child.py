"""Run one signrank CLI command with tracing on.

    python3 perfbench/cli_child.py SPANS.npz <signrank arguments...>

Imports ``signrank.cli`` (timed as the span ``cli.import``), patches the
traced functions, runs ``main`` (span ``cli.main``) and writes the spans to
SPANS.npz on the way out, also when the command raises.  A root span
``cli.child`` covers everything after interpreter start, so the caller can
tell interpreter start-up from the rest.
"""

import sys
import time

start = time.perf_counter()
import signrank.cli as cli  # noqa: E402

imported = time.perf_counter()

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.span("cli.import", start, imported)
    tracer.install()
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.span("cli.child", start, time.perf_counter())
        tracer.save(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
