"""The README and fixture CLI outputs, compared with a recorded copy.

``fixtures/cli_outputs.json`` holds the stdout of 16 commands: both
scenarios and ``classify`` on both fixture pairs, for fermions and bosons,
in text and JSON. A refactor must reproduce them: JSON keys, strings, ints
and nulls exactly and floats to 1e-12 absolute; in text, every number to
1e-12 absolute and all other text exactly. A text ``a + bi`` or ``a - bi``
is one complex value, since a roundoff imaginary part can print with either
sign.

Rerecord, after a deliberate output change, with
``PYTHONPATH=src python tests/test_recorded_outputs.py``.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from pairmeasure.cli import EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "cli_outputs.json"
FLOAT_TOL = 1e-12
_REAL = r"\d+(?:\.\d*)?(?:e[-+]?\d+)?"
NUMBER = re.compile(rf"(-?{_REAL}) ([-+]) ({_REAL})i|(-?{_REAL})")

COMMANDS = {
    "momentum-scenario": ["momentum-scenario", "--lattice", "8", "--mode-a", "1",
                          "--mode-b", "7"],
    "position-scenario": ["position-scenario", "--lattice", "8", "--mode-a", "1",
                          "--xa", "2", "--xb", "5", "--width", "1"],
    "classify-momentum": ["classify", "--state", "momentum_state.txt",
                          "--measure", "momentum_measure.txt"],
    "classify-position": ["classify", "--state", "position_state.txt",
                          "--measure", "position_measure.txt"],
}
CASES = {
    f"{name}-{stat}-{output}": command + ["--statistics", stat, "--output", output]
    for name, command in COMMANDS.items()
    for stat in ("fermion", "boson")
    for output in ("text", "json")
}


def run(argv):
    """Stdout of one in-process call; fixture file names resolve in ``FIXTURES``."""
    resolved = [
        str(FIXTURES / arg) if prev in ("--state", "--measure") else arg
        for prev, arg in zip([None, *argv], argv)
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(resolved) == EXIT_OK
    return out.getvalue()


def assert_json_close(seen, recorded, where="$"):
    # A float with an integral value prints without a point ("1") and reads
    # back as an int, so a pair is compared as floats when either side is one.
    if float in (type(seen), type(recorded)):
        assert type(seen) in (int, float) and type(recorded) in (int, float), where
        assert math.isclose(seen, recorded, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{where}: {seen!r} != {recorded!r}"
        )
    elif isinstance(recorded, dict):
        assert isinstance(seen, dict) and list(seen) == list(recorded), where
        for key, value in recorded.items():
            assert_json_close(seen[key], value, f"{where}.{key}")
    elif isinstance(recorded, list):
        assert isinstance(seen, list) and len(seen) == len(recorded), where
        for index, (got, want) in enumerate(zip(seen, recorded)):
            assert_json_close(got, want, f"{where}[{index}]")
    else:
        assert seen == recorded and type(seen) is type(recorded), where


def split_numbers(line):
    """The line with each number replaced by ``#``, and those numbers as complex values."""
    values = []

    def take(match):
        real, sign, imag, plain = match.groups()
        values.append(complex(float(plain)) if real is None
                      else complex(float(real), float(sign + imag)))
        return "#"

    return NUMBER.sub(take, line), values


def assert_text_close(seen, recorded):
    seen_lines, recorded_lines = seen.splitlines(), recorded.splitlines()
    assert len(seen_lines) == len(recorded_lines)
    for got, want in zip(seen_lines, recorded_lines):
        (got_text, got_values), (want_text, want_values) = map(split_numbers, (got, want))
        assert got_text == want_text and len(got_values) == len(want_values), (got, want)
        for x, y in zip(got_values, want_values):
            assert max(abs(x.real - y.real), abs(x.imag - y.imag)) <= FLOAT_TOL, (got, want)


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_output_matches_the_record(argv):
    recorded = json.loads(RECORD.read_text())[" ".join(argv)]
    seen = run(argv)
    if argv[-1] == "json":
        assert_json_close(json.loads(seen), json.loads(recorded))
    else:
        assert_text_close(seen, recorded)


def test_record_holds_every_command():
    recorded = json.loads(RECORD.read_text())
    assert sorted(recorded) == sorted(" ".join(argv) for argv in CASES.values())


if __name__ == "__main__":
    record = {" ".join(argv): run(argv) for argv in CASES.values()}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
