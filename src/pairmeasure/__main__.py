"""Process entry of the command line: ``python -m pairmeasure`` and the
installed ``pairmeasure`` script.

A process that runs one call keeps the cyclic garbage collector off: it is
disabled before numpy loads, and after the call every live object is moved
to the permanent generation (``gc.freeze``), so neither numpy's import nor
the interpreter's finalization walks numpy's objects. That is sound only
under the one-call-per-process condition: the call runs once and then the
process ends, so nothing is left for the collector to free. In-process
callers use :func:`pairmeasure.cli.main`, which leaves the collector alone.
"""

import gc
import sys


def main() -> int:
    """Run the command line on ``sys.argv`` once; returns the exit code."""
    gc.disable()
    from .cli import main as run_cli

    try:
        return run_cli()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
