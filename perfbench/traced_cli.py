"""Run ``pairmeasure`` from the command line with the tracer installed.

Usage: python perfbench/traced_cli.py <pairmeasure arguments>

Behaves like ``python -m pairmeasure`` and, on exit, writes the trace
snapshot as one line to stderr, after the marker the benchmark looks for.
"""

import json
import sys

import pairmeasure.cli
from tracing import TRACE_MARKER, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = pairmeasure.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.snapshot()) + "\n")
    sys.exit(code)
