"""The README and fixture CLI outputs, compared with a recorded copy.

``fixtures/cli_outputs.json`` holds the stdout of 16 commands: both
scenarios and ``classify`` on both fixture pairs, for fermions and bosons,
in text and JSON. A refactor must reproduce them: JSON keys, strings, ints
and nulls exactly and floats to 1e-12 absolute; in text, every number to
1e-12 absolute and all other text exactly. A text ``a + bi`` or ``a - bi``
is one complex value, since a roundoff imaginary part can print with either
sign.

Rerecord, after a deliberate output change, with
``PYTHONPATH=src python tests/test_recorded_outputs.py``. It keeps each
recorded entry that the new output still matches, so a host whose BLAS
rounds differently rewrites nothing, and prints the names of the entries it
rewrote.

Both reports render one mapping, so the module also checks that each text
report carries the values of its JSON report, and that the README lists the
JSON report's keys as emitted. It also runs the README's Library example and
checks what its comments say.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from pairmeasure import VerdictTag
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


# Each text line that carries values: its head, its JSON key, and how to read its numbers.
TEXT_KEYS = {
    "tolerance": ("tolerance", lambda zs: zs[0].real),
    "direct assignment": ("norm_direct", lambda zs: zs[0].real),
    "swapped assignment": ("norm_permuted", lambda zs: zs[0].real),
    "event overlap": ("event_overlap", lambda zs: [zs[0].real, zs[0].imag]),
    "post-state singular values": ("singular_values", lambda zs: [z.real for z in zs]),
    "post-state Schmidt rank": ("schmidt_rank", lambda zs: zs[0].real),
    "post-state entropy": ("entropy", lambda zs: zs[0].real),
    "spin state handed to (Alice, Bob)": ("relabeled", lambda zs: [[z.real, z.imag] for z in zs]),
}


def text_fields(text):
    """A text report's values under the JSON report's keys, and whether it has the overlap note."""
    fields = {"singular_values": [], "entropy": None, "slater_rank": None, "phase": None,
              "schmidt_rank": None, "relabeled": None}
    note = False
    for line in text.splitlines():
        head, _, value = line.strip().partition(": ")
        _, numbers = split_numbers(value)
        if head == "verdict":
            fields["verdict"] = value
        elif head in TEXT_KEYS:
            key, read = TEXT_KEYS[head]
            fields[key] = read(numbers)
        elif head in ("probability", "squared event norm"):
            fields["probability"] = numbers[0].real
            fields["born_rule"] = head == "probability"
        elif head == "Slater rank":
            fields["slater_rank"] = numbers[0].real if numbers else None
        elif head == "phase check":
            measured, predicted, deviation = numbers
            fields["phase"] = {
                "measured_re": measured.real, "measured_im": measured.imag,
                "predicted_re": predicted.real, "predicted_im": predicted.imag,
                "deviation": deviation.real,
            }
        elif head == "note":
            note = True
        else:
            assert head in ("event norms (Alice takes slot 1, Bob slot 2):", "post-state"), line
    return fields, note


PAIRS = {key.removesuffix("-text"): argv[:-1] for key, argv in CASES.items()
         if argv[-1] == "text"}


@pytest.mark.parametrize("argv", list(PAIRS.values()), ids=list(PAIRS))
def test_text_report_carries_the_values_of_the_json_report(argv):
    payload = json.loads(run(argv + ["json"]))
    fields, note = text_fields(run(argv + ["text"]))
    # The text prints every key but the zero tests' scale and the reference
    # overlap, which it prints only in a note when that overlap differs.
    assert set(fields) == set(payload) - {"scale", "ref_overlap"}
    assert fields == {key: payload[key] for key in fields}
    assert note == (payload["ref_overlap"] != payload["event_overlap"])


def test_readme_lists_the_keys_of_the_json_report():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"`--output json`\s+emits one object with the stable keys\s+`\{([^}]*)\}`",
                       readme)
    assert listed, "README: no key list in the --output json paragraph"
    keys = [key.strip() for key in listed.group(1).split(",")]
    argv = next(argv for argv in CASES.values() if argv[-1] == "json")
    assert keys == list(json.loads(run(argv)))


def test_record_holds_every_command():
    recorded = json.loads(RECORD.read_text())
    assert sorted(recorded) == sorted(" ".join(argv) for argv in CASES.values())


def merged_record() -> tuple[str, list[str]]:
    """The record's text with every command rerun, and the names of the entries it rewrote.

    An entry is kept as recorded when the new output passes the comparison of
    ``test_output_matches_the_record``, and replaced by the new output otherwise.
    """
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record, rewritten = {}, []
    for argv in CASES.values():
        name, seen = " ".join(argv), run(argv)
        try:
            recorded = old[name]
            if argv[-1] == "json":
                assert_json_close(json.loads(seen), json.loads(recorded))
            else:
                assert_text_close(seen, recorded)
        except (KeyError, AssertionError):
            recorded = seen
            rewritten.append(name)
        record[name] = recorded
    return json.dumps(record, indent=1) + "\n", rewritten


def test_rerecording_keeps_every_entry_that_matches():
    text, rewritten = merged_record()
    assert rewritten == []
    assert text == RECORD.read_text()


def test_readme_library_example_gives_what_its_comments_say():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README: no python block under '## Library'"
    scope = {}
    exec(block.group(1), scope)
    result = scope["result"]
    assert result.verdict.tag is VerdictTag.LOCAL_OPERATION
    assert abs(result.probability - 0.5) <= 4 * sys.float_info.epsilon
    assert result.born_rule is True
    assert result.report.schmidt_rank == 1 and result.report.entropy < 1e-12
    evidence = result.evidence
    assert (evidence.rank_before, evidence.rank_after) == (1, 1)
    assert evidence.entangled_by_measure is False


if __name__ == "__main__":
    text, rewritten = merged_record()
    RECORD.write_text(text)
    print("\n".join(rewritten) if rewritten else "no entry rewritten")
