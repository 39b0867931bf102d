import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pairmeasure import (
    ParseError,
    SpaceSpec,
    momentum_projector,
    parse_measure_file,
    parse_state_file,
    write_measure_file,
    write_state_file,
)

from helpers import random_state

FIXTURES = Path(__file__).parent / "fixtures"


def write(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    return path


def test_parse_two_line_singlet_like_state(tmp_path):
    path = write(
        tmp_path,
        "dim 2 2\n"
        "amp 0 3 0.7071067811865476 0.0\n"
        "amp 3 0 -0.7071067811865476 0.0\n",
    )
    state = parse_state_file(path)
    assert state.space == SpaceSpec(2, 2)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    coeff = state.matrix()
    assert coeff[0, 3] == pytest.approx(1 / np.sqrt(2))
    assert coeff[3, 0] == pytest.approx(-1 / np.sqrt(2))


def test_parse_accepts_comments_and_blank_lines(tmp_path):
    path = write(
        tmp_path,
        "# a comment\n\ndim 2 1\n# another\namp 0 1 1 0\n\n",
    )
    state = parse_state_file(path)
    assert state.matrix()[0, 1] == 1.0


def test_parse_empty_amplitude_list_gives_zero_state(tmp_path):
    state = parse_state_file(write(tmp_path, "dim 2 2\n"))
    assert state.norm == 0.0


def test_parse_rejects_out_of_range_index(tmp_path):
    path = write(tmp_path, "dim 2 2\namp 5 0 1 0\n")
    with pytest.raises(ParseError) as excinfo:
        parse_state_file(path)
    assert excinfo.value.line_number == 2
    assert "range" in str(excinfo.value)


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("dim 2 2\namp 0 0 not-a-number 0\n", 2),
        ("dim 2 2\namp 0 0 1\n", 2),
        ("dim 2\n", 1),
        ("dim 0 2\n", 1),
        ("amp 0 0 1 0\n", 1),
        ("dim 2 2\ndim 2 2\n", 2),
        ("dim 2 2\nB 0 0 1 0\n", 2),
    ],
)
def test_parse_state_errors_carry_line_numbers(tmp_path, text, bad_line):
    with pytest.raises(ParseError) as excinfo:
        parse_state_file(write(tmp_path, text))
    assert excinfo.value.line_number == bad_line


def test_parse_missing_header_entirely(tmp_path):
    with pytest.raises(ParseError):
        parse_state_file(write(tmp_path, "# only comments\n"))


def test_parse_identity_measure(tmp_path):
    lines = ["dim 2 1"]
    lines += [f"A {i} {i} 1 0" for i in range(2)]
    lines += [f"B {i} {i} 1 0" for i in range(2)]
    measure = parse_measure_file(write(tmp_path, "\n".join(lines) + "\n"))
    assert np.array_equal(measure.factor_slot1.entries, np.eye(2))
    assert np.array_equal(measure.factor_slot2.entries, np.eye(2))


def test_parse_measure_rejects_amp_records(tmp_path):
    with pytest.raises(ParseError) as excinfo:
        parse_measure_file(write(tmp_path, "dim 2 1\namp 0 0 1 0\n"))
    assert excinfo.value.line_number == 2


def test_measure_with_only_a_entries_leaves_b_zero(tmp_path):
    measure = parse_measure_file(write(tmp_path, "dim 2 1\nA 0 0 1 0\n"))
    assert np.any(measure.factor_slot1.entries)
    assert not np.any(measure.factor_slot2.entries)


def test_repeated_record_overwrites_earlier_value(tmp_path):
    state = parse_state_file(write(tmp_path, "dim 2 1\namp 0 1 1 0\namp 0 1 0 2\n"))
    assert state.matrix()[0, 1] == 2j


def test_momentum_projector_roundtrips_exactly(tmp_path):
    measure = momentum_projector(1, 7, SpaceSpec(8, 2))
    path = tmp_path / "measure.txt"
    write_measure_file(path, measure, comment="roundtrip")
    reread = parse_measure_file(path)
    assert np.max(np.abs(reread.factor_slot1.entries - measure.factor_slot1.entries)) < 1e-15
    assert np.max(np.abs(reread.factor_slot2.entries - measure.factor_slot2.entries)) < 1e-15


def test_state_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(61)
    state = random_state(rng, SpaceSpec(3, 2))
    path = tmp_path / "state.txt"
    write_state_file(path, state)
    assert np.array_equal(parse_state_file(path).amplitudes, state.amplitudes)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_values(tmp_path, value):
    path = write(tmp_path, f"dim 2 2\namp 0 1 1 0\namp 1 0 {value} 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_state_file(path)
    path = write(tmp_path, f"dim 2 2\nA 0 0 1 0\nB 1 1 0 {value}\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_measure_file(path)


def test_fixture_generator_reproduces_the_committed_fixtures(tmp_path):
    spec = importlib.util.spec_from_file_location("generate", FIXTURES / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.main(tmp_path)
    for prefix in ("momentum", "position"):
        name = f"{prefix}_state.txt"
        got, want = parse_state_file(tmp_path / name), parse_state_file(FIXTURES / name)
        assert got.space == want.space
        assert np.max(np.abs(got.matrix() - want.matrix())) < 1e-14, name
        name = f"{prefix}_measure.txt"
        got, want = parse_measure_file(tmp_path / name), parse_measure_file(FIXTURES / name)
        assert got.space == want.space
        for new, old in ((got.factor_slot1, want.factor_slot1),
                         (got.factor_slot2, want.factor_slot2)):
            assert np.max(np.abs(new.entries - old.entries)) < 1e-14, name
