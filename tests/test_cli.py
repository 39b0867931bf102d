import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairmeasure.measurement
from pairmeasure import hilbert
from pairmeasure import (
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    classify,
    measure_pair,
    momentum_projector,
    parse_state_file,
    window_projector,
    write_measure_file,
    write_state_file,
)
from pairmeasure.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE, main

from helpers import identity_measure, random_unitary

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment for a child ``python -m pairmeasure``: ``src`` on its path."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_momentum_scenario_text(capsys):
    code, out, _ = run_cli(
        capsys,
        ["momentum-scenario", "--lattice", "8", "--mode-a", "1", "--mode-b", "7",
         "--statistics", "fermion"],
    )
    assert code == EXIT_OK
    assert "verdict: LocalOperation" in out
    prob_line = next(line for line in out.splitlines() if line.startswith("probability:"))
    assert float(prob_line.split()[1]) == pytest.approx(0.5, abs=1e-12)
    assert "Alice" in out and "Bob" in out


def test_momentum_scenario_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["momentum-scenario", "--lattice", "8", "--mode-a", "1", "--mode-b", "7",
         "--statistics", "fermion", "--output", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "LocalOperation"
    assert payload["probability"] == pytest.approx(0.5, abs=1e-12)
    assert payload["phase"] is None
    assert set(payload) == {
        "verdict", "probability", "singular_values", "entropy", "slater_rank", "phase",
    }


def test_position_scenario_json_phase(capsys):
    code, out, _ = run_cli(
        capsys,
        ["position-scenario", "--lattice", "8", "--mode-a", "1", "--mode-b", "7",
         "--xa", "2", "--xb", "5", "--width", "1", "--statistics", "fermion",
         "--output", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "EntanglingMeasurement"
    assert payload["phase"]["deviation"] < 1e-10
    assert payload["probability"] == pytest.approx(1 / 64, abs=1e-12)
    assert payload["entropy"] == pytest.approx(0.6931471805599453, abs=1e-10)


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["position-scenario", "--lattice", "8", "--mode-a", "1", "--xa", "2",
            "--xb", "5", "--statistics", "boson", "--output", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    argv = ["momentum-scenario", "--output", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_classify_momentum_fixtures(capsys):
    code, out, _ = run_cli(
        capsys,
        ["classify", "--state", str(FIXTURES / "momentum_state.txt"),
         "--measure", str(FIXTURES / "momentum_measure.txt"), "--output", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "LocalOperation"
    assert payload["probability"] == pytest.approx(0.5, abs=1e-10)


def test_classify_position_fixtures(capsys):
    code, out, _ = run_cli(
        capsys,
        ["classify", "--state", str(FIXTURES / "position_state.txt"),
         "--measure", str(FIXTURES / "position_measure.txt"), "--output", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "EntanglingMeasurement"
    assert payload["probability"] == pytest.approx(1 / 64, abs=1e-10)


def test_classify_both_zero_measure(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 3 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 2\n")
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(state), "--measure", str(measure),
         "--output", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "BothZero"
    assert payload["probability"] == 0.0
    assert payload["entropy"] is None
    assert "warning" in err


def test_zero_measure_text_report_has_no_overlap_note(tmp_path, capsys):
    # both overlaps are 0 against a zero scale, so there is no mismatch to note
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 3 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 2\n")
    code, out, _ = run_cli(capsys, ["classify", "--state", str(state), "--measure",
                                    str(measure)])
    assert code == EXIT_OK
    assert "verdict: BothZero" in out and "disagrees" not in out


def test_classify_failure_after_a_zero_factor_is_one_error_line(tmp_path, capsys):
    # a doubly occupied mode has no fermion sector; the factor warnings stay silent
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 0 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 2\n")
    code, out, err = run_cli(capsys, ["classify", "--state", str(state), "--measure",
                                      str(measure)])
    assert code == EXIT_DEGENERATE and out == ""
    assert err == "error: reference state has no fermion sector to measure\n"


def test_classify_only_a_entries_warns(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 1\namp 0 1 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 1\nA 0 0 1 0\n")
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(state), "--measure", str(measure),
         "--output", "json"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "BothZero"
    assert "factor B" in err


def test_classify_non_projector_measure_relabels_probability(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 1\namp 0 0 1 0\namp 1 0 1 0\namp 1 1 1 0\n")
    measure = tmp_path / "measure.txt"
    # factor A is a raising operator: not Hermitian, so no Born-rule reading
    measure.write_text("dim 2 1\nA 0 1 1 0\nB 0 0 1 0\nB 1 1 1 0\n")
    code, out, _ = run_cli(
        capsys, ["classify", "--state", str(state), "--measure", str(measure)]
    )
    assert code == EXIT_OK
    assert "squared event norm:" in out
    assert "probability:" not in out
    assert "disagrees with the event overlap" in out


def test_classify_malformed_file_exits_2(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 9 9 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 2\nA 0 0 1 0\nB 0 0 1 0\n")
    code, _, err = run_cli(
        capsys,
        ["classify", "--state", str(state), "--measure", str(measure)],
    )
    assert code == EXIT_PARSE
    assert "line 2" in err


def test_classify_zero_state_exits_3(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 2 2\nA 0 0 1 0\nB 0 0 1 0\n")
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(state), "--measure", str(measure)],
    )
    assert code == EXIT_DEGENERATE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "warning" not in err


def test_momentum_scenario_equal_modes_exits_3(capsys):
    code, _, err = run_cli(
        capsys, ["momentum-scenario", "--mode-a", "3", "--mode-b", "3"]
    )
    assert code == EXIT_DEGENERATE
    assert "error" in err


def complex_values(text):
    """The ``a +- bi`` values of one report line, in order."""
    pairs = re.findall(r"(\S+) ([-+]) (\S+)i", text)
    return np.array([complex(float(re_), float(sign + im)) for re_, sign, im in pairs])


def momentum_text_report(out):
    """Verdict, squared event norm and relabeled spin state of one momentum text report.

    The norm is printed as ``probability`` when the measure passes the
    projector test at ``--tol`` and as ``squared event norm`` otherwise; at a
    ``--tol`` below the roundoff of the built projectors (1e-16 at L = 2) the
    test can fail, which is no part of the relabeling.
    """
    lines = out.splitlines()
    assert sum(line.startswith("verdict:") for line in lines) == 1
    fields = dict(line.partition(": ")[::2] for line in lines)
    labels = [label for label in ("probability", "squared event norm") if label in fields]
    assert len(labels) == 1
    state = complex_values(fields["spin state handed to (Alice, Bob)"])
    return fields["verdict"], float(fields[labels[0]]), state


UP_DOWN = np.array([0, 1, 0, 0], dtype=complex)


def test_momentum_scenario_at_tol_1e_16_relabels_to_up_down(capsys):
    # the spin state is read off the post-state's core, so no roundoff can
    # count as support off the momentum labels, however small the tol
    code, out, err = run_cli(capsys, ["momentum-scenario", "--mode-a", "3", "--tol", "1e-16"])
    assert code == EXIT_OK and err == ""
    assert "\nprobability: " in out
    verdict, probability, state = momentum_text_report(out)
    assert verdict == "LocalOperation"
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(state - UP_DOWN)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    sites=st.integers(2, 64),
    modes=st.tuples(st.integers(0, 63), st.integers(1, 63)),
    stat=st.sampled_from(["fermion", "boson"]),
    tol=st.sampled_from([float(np.finfo(float).eps), 1e-16]),
)
@example(sites=2, modes=(0, 1), stat="fermion", tol=1e-16)
def test_momentum_scenario_relabels_at_any_positive_tol(sites, modes, stat, tol):
    m_a = modes[0] % sites
    m_b = (m_a + modes[1] % (sites - 1) + 1) % sites
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["momentum-scenario", "--lattice", str(sites), "--mode-a", str(m_a),
                     "--mode-b", str(m_b), "--statistics", stat, "--tol", repr(tol)])
    assert code == EXIT_OK
    verdict, probability, state = momentum_text_report(out.getvalue())
    assert verdict == "LocalOperation"
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(state - UP_DOWN)) < 1e-12


@pytest.mark.parametrize("stat", ["fermion", "boson"])
@pytest.mark.parametrize("tol", [float(np.finfo(float).eps), 1e-16])
def test_momentum_scenario_json_at_tiny_tol_is_a_local_operation(capsys, stat, tol):
    code, out, err = run_cli(
        capsys, ["momentum-scenario", "--statistics", stat, "--tol", repr(tol), "--output", "json"]
    )
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "LocalOperation"
    assert payload["probability"] == pytest.approx(0.5, abs=1e-12)
    assert payload["singular_values"] == [pytest.approx(1.0, abs=1e-12)]
    assert payload["phase"] is None


@pytest.mark.parametrize("argv", [
    ["momentum-scenario"],
    ["position-scenario", "--width", "3", "--xa", "2", "--xb", "9"],
], ids=["momentum", "windows width 3"])
def test_scenarios_at_tol_1e_16_build_no_dense_array(capsys, argv):
    # the projectors' closed-form bases have a projector bound of exactly 0,
    # so the Born-rule flag holds at any tol without the n x n entries (and
    # their n^3 square) or a dense basis
    dense = [
        mock.patch.object(owner, name, new_callable=mock.PropertyMock)
        for owner, name in ((OneParticleOperator, "entries"), (hilbert._Basis, "matrix"))
    ]
    with dense[0] as entries, dense[1] as matrix:
        code, out, err = run_cli(capsys, argv + ["--lattice", "512", "--tol", "1e-16"])
    assert code == EXIT_OK and err == ""
    assert "\nprobability: " in out
    assert entries.call_count == matrix.call_count == 0


@pytest.mark.parametrize("stat", ["fermion", "boson"])
def test_position_scenario_at_tiny_tol_hands_over_the_checked_spin_state(capsys, stat):
    # the width-1 spin state is the post-state's core at any tol; its
    # down-up over up-down ratio is the phase the report checks
    code, out, err = run_cli(capsys, ["position-scenario", "--statistics", stat, "--tol", "1e-16"])
    assert code == EXIT_OK and err == ""
    fields = dict(line.partition(": ")[::2] for line in out.splitlines())
    assert fields["verdict"] == "EntanglingMeasurement"
    state = complex_values(fields["spin state handed to (Alice, Bob)"])
    measured, predicted = complex_values(fields["phase check"])
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    assert state[0] == 0.0 and state[3] == 0.0
    assert state[2] / state[1] == pytest.approx(measured, abs=1e-12)
    assert measured == pytest.approx(predicted, abs=1e-12)


def test_bad_flag_values_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["momentum-scenario", "--lattice", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["position-scenario", "--xa", "99"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["momentum-scenario", "--tol", "-1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["momentum-scenario", "--lattice", "abc"],
        ["momentum-scenario", "--bogus"],
        ["classify", "--measure", "x"],
        ["position-scenario", "--statistics", "quark"],
        ["position-scenario", "--width", "0"],
    ],
    ids=["bad-int", "unknown-flag", "missing-state", "bad-choice", "zero-width"],
)
def test_parse_errors_are_one_line_and_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_invocation_end_to_end():
    result = subprocess.run(
        [sys.executable, "-m", "pairmeasure", "position-scenario", "--output", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "EntanglingMeasurement"


def test_classify_applies_the_measure_twice(capsys):
    for name in ("momentum", "position"):
        argv = ["classify", "--state", str(FIXTURES / f"{name}_state.txt"),
                "--measure", str(FIXTURES / f"{name}_measure.txt")]
        with mock.patch(
            "pairmeasure.measurement.apply_measure",
            wraps=pairmeasure.measurement.apply_measure,
        ) as apply:
            code, _, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert apply.call_count == 2, name


def test_classify_dimension_mismatch_exits_2(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 3 1 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text("dim 3 2\nA 0 0 1 0\nB 0 0 1 0\n")
    code, out, err = run_cli(
        capsys, ["classify", "--state", str(state), "--measure", str(measure)]
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["state", "measure"])
def test_classify_missing_file_exits_2(tmp_path, capsys, missing):
    paths = {"state": FIXTURES / "momentum_state.txt",
             "measure": FIXTURES / "momentum_measure.txt"}
    paths[missing] = tmp_path / "absent.txt"
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(paths["state"]), "--measure", str(paths["measure"])],
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "absent.txt" in err and err.count("\n") == 1


def test_classify_non_finite_value_exits_2(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 3 nan 0\n")
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(state),
         "--measure", str(FIXTURES / "momentum_measure.txt")],
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert "line 2" in err and err.count("\n") == 1


def test_classify_undecodable_file_exits_2(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_bytes(b"dim 2 2\namp 0 3 \xff\xfe 0\n")
    code, out, err = run_cli(
        capsys,
        ["classify", "--state", str(state),
         "--measure", str(FIXTURES / "momentum_measure.txt")],
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exits_2(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["momentum-scenario", "--tol", value])
    assert excinfo.value.code == EXIT_PARSE
    assert capsys.readouterr().err == "error: --tol must be finite and positive\n"


@pytest.mark.parametrize("value", ["1", "1.0", "5"])
@pytest.mark.parametrize(
    "command",
    [
        ["momentum-scenario", "--lattice", "8", "--mode-a", "1"],
        ["position-scenario"],
        ["classify", "--state", str(FIXTURES / "momentum_state.txt"),
         "--measure", str(FIXTURES / "momentum_measure.txt")],
    ],
)
def test_tolerance_of_1_or_more_exits_2(command, value, capsys):
    # from 1 up every value is negligible against a scale it reaches; at 5
    # momentum-scenario used to exit 3 blaming the reference's fermion sector
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--tol", value])
    assert excinfo.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tol must be below 1\n"


def test_reports_list_singular_values_up_to_the_schmidt_rank(capsys):
    for command, rank in (("momentum-scenario", 1), ("position-scenario", 2)):
        _, out, _ = run_cli(capsys, [command, "--output", "json"])
        assert len(json.loads(out)["singular_values"]) == rank
        _, out, _ = run_cli(capsys, [command])
        line = next(l for l in out.splitlines() if l.startswith("post-state singular values:"))
        assert len(line.split(":")[1].split()) == rank


def test_impossible_outcome_prints_no_phase_or_spin_state(capsys):
    code, out, _ = run_cli(capsys, ["position-scenario", "--tol", "0.9"])
    assert code == EXIT_OK
    assert "post-state: none (outcome impossible)" in out
    assert "phase check" not in out and "spin state handed" not in out


@pytest.mark.parametrize("command", ["momentum-scenario", "position-scenario"])
def test_lattice_above_the_dense_pair_budget_runs(command, capsys):
    # dense pair arrays stop at L = 2048; the scenarios, which build none and
    # hold no array that grows with L, do not stop
    for lattice in ("4096", "1000000", str(2**25)):
        code, out, err = run_cli(capsys, [command, "--lattice", lattice, "--output", "json"])
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["verdict"] in ("LocalOperation", "EntanglingMeasurement")


def test_scenarios_run_at_any_lattice(capsys):
    # A window's event norm is w/L against a scale of 1: at 2^40 it is below
    # the default tol, so both events read zero, and a smaller tol keeps the verdict
    for args, verdict in (
        (["position-scenario", "--lattice", str(10**9 + 7)], "EntanglingMeasurement"),
        (["position-scenario", "--lattice", str(2**40)], "BothZero"),
        (["position-scenario", "--lattice", str(2**40), "--tol", "1e-14"],
         "EntanglingMeasurement"),
        (["momentum-scenario", "--lattice", str(2**40)], "LocalOperation"),
    ):
        code, out, err = run_cli(capsys, args + ["--output", "json"])
        assert code == EXIT_OK and err == "", args
        assert json.loads(out)["verdict"] == verdict, args


@pytest.mark.parametrize("command", ["momentum-scenario", "position-scenario"])
def test_a_lattice_above_2_to_the_1021_sites_exits_3_in_one_line(command, capsys):
    # plane-wave phases overflow a double past the ceiling; at it both scenarios answer
    for lattice in (2**1022, 2**1024, 10**400):
        code, out, err = run_cli(capsys, [command, "--lattice", str(lattice)])
        assert code == EXIT_DEGENERATE and out == "", lattice
        assert err.startswith("error: plane waves need a lattice of at most 2**1021 sites")
        assert err.count("\n") == 1
    code, out, err = run_cli(capsys, [command, "--lattice", str(2**1021), "--output", "json"])
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["verdict"] in ("LocalOperation", "BothZero")


def test_dim_header_above_the_memory_budget_exits_3(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("dim 1000000 2\namp 0 3 1 0\n")
    code, out, err = run_cli(
        capsys, ["classify", "--state", str(state),
                 "--measure", str(FIXTURES / "momentum_measure.txt")]
    )
    assert code == EXIT_DEGENERATE and out == ""
    assert err.startswith("error:") and "budget" in err and err.count("\n") == 1


def test_closed_stdout_ends_quietly():
    # the reading end is closed before the report is written, as after `| head` exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pairmeasure", "position-scenario", "--output", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode != EXIT_OK
    assert result.stderr == b""


def test_tol_reaches_the_rank_test(tmp_path, capsys):
    # singlet-like pairs at amplitudes 1 and 1e-6: spectrum 1, 1, 1e-6, 1e-6
    state = tmp_path / "state.txt"
    state.write_text("dim 2 2\namp 0 1 1 0\namp 2 3 1e-6 0\n")
    measure = tmp_path / "measure.txt"
    measure.write_text(
        "dim 2 2\n" + "".join(f"{tag} {i} {i} 1 0\n" for tag in "AB" for i in range(4))
    )
    argv = ["classify", "--state", str(state), "--measure", str(measure),
            "--output", "json"]
    for extra, kept, slater in (([], 4, 2), (["--tol", "1e-5"], 2, 1)):
        code, out, _ = run_cli(capsys, argv + extra)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["singular_values"]) == kept, extra
        assert payload["slater_rank"] == slater, extra


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_possible_outcome_never_reports_schmidt_rank_0(statistics, capsys):
    # single-site windows: p = 1/64, impossible only once tol reaches 1/8
    for tol in ("1e-12", "1e-8", "1e-4", "0.01", "0.05", "0.1"):
        code, out, _ = run_cli(capsys, ["position-scenario", "--statistics", statistics,
                                        "--tol", tol, "--output", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["singular_values"]) == 2, tol
        assert payload["entropy"] == pytest.approx(math.log(2), abs=1e-12), tol
        assert payload["phase"] is not None, tol


def noisy_slater_state(space, rng, second):
    """An antisymmetric state q D q^T with spectrum 1, 1, ``second``, ``second``.

    q is a random real orthogonal matrix, so each pair is degenerate only up
    to roundoff.
    """
    dim = space.total_dim
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    pairs = np.zeros((dim, dim))
    pairs[0, 1], pairs[2, 3] = 1.0, second
    pairs -= pairs.T
    return TwoParticleState(space, (q @ pairs @ q.T).reshape(-1))


def test_noisy_slater_spectrum_exits_3(tmp_path, capsys):
    # at tol 1e-6 the roundoff split of the 1e-6 pair straddles tol * sigma_max
    space = SpaceSpec(3, 2)
    state, measure = tmp_path / "state.txt", tmp_path / "measure.txt"
    write_state_file(state, noisy_slater_state(space, np.random.default_rng(0), 1e-6))
    write_measure_file(measure, identity_measure(space))
    code, out, err = run_cli(
        capsys, ["classify", "--state", str(state), "--measure", str(measure),
                 "--tol", "1e-6"]
    )
    assert code == EXIT_DEGENERATE and out == ""
    assert err.startswith("error:") and "tol" in err and err.count("\n") == 1


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(2, 3),
    kind=st.sampled_from(["random", "antisymmetric", "zero", "mismatched", "malformed"]),
    projectors=st.booleans(),
    second=st.floats(-16, 0),
    tol_exponent=st.floats(-15, 0),
    ratio=st.one_of(st.none(), st.integers(1, 3)),
)
def test_classify_runs_end_in_a_report_or_one_error_line(
    seed, sites, kind, projectors, second, tol_exponent, ratio
):
    # whatever the input and tol, classify reports or fails in one stderr line
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    if kind == "antisymmetric":
        state = noisy_slater_state(space, rng, 10.0**second)
    else:
        amps = rng.standard_normal(space.pair_dim) + 1j * rng.standard_normal(space.pair_dim)
        state = TwoParticleState(space, 0.0 * amps if kind == "zero" else amps)
    if projectors:
        factors = (
            OneParticleOperator(space, None, range_basis=random_unitary(rng, dim)[:, :rank])
            for rank in rng.integers(0, dim + 1, size=2)
        )
        measure = SelectiveMeasure(*factors)
    else:
        measure = identity_measure(space)
    if kind == "mismatched":
        measure = identity_measure(SpaceSpec(sites + 1, 2))
    # the state's own singular-value ratios put tol * sigma_max on a singular value
    sigma = np.linalg.svd(state.matrix(), compute_uv=False)
    tol = 10.0**tol_exponent
    if ratio is not None and sigma[ratio] > 0:
        tol = float(sigma[ratio] / sigma[0])
    with tempfile.TemporaryDirectory() as folder:
        state_path = os.path.join(folder, "state.txt")
        measure_path = os.path.join(folder, "measure.txt")
        write_state_file(state_path, state)
        write_measure_file(measure_path, measure)
        if kind == "malformed":
            with open(state_path, "a", encoding="utf-8") as handle:
                handle.write("amp 0 one 1 0\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["classify", "--state", state_path, "--measure", measure_path,
                             "--tol", repr(tol)])
            except SystemExit as exc:
                code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DEGENERATE)
    assert code == EXIT_OK or out.getvalue() == ""
    lines = err.getvalue().splitlines()
    if code == EXIT_OK:
        assert all(line.startswith("warning: ") for line in lines)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["momentum-scenario", "position-scenario"]),
    lattice=st.integers(2, 64),
    tol_exponent=st.floats(-16, 0),
    statistics=st.sampled_from(["fermion", "boson"]),
    output=st.sampled_from(["text", "json"]),
)
def test_scenario_runs_end_in_a_report_or_one_error_line(
    data, command, lattice, tol_exponent, statistics, output
):
    # sites and modes range one past [0, L) on both sides, to reach the flag checks
    site = st.integers(-1, lattice)
    argv = [command, "--lattice", str(lattice), "--mode-a", str(data.draw(site)),
            "--tol", repr(10.0**tol_exponent), "--statistics", statistics,
            "--output", output]
    mode_b = data.draw(st.one_of(st.none(), site))
    if mode_b is not None:
        argv += ["--mode-b", str(mode_b)]
    if command == "position-scenario":
        width = data.draw(st.sampled_from([1, 2, 3, lattice, lattice + 1]))
        argv += ["--xa", str(data.draw(site)), "--xb", str(data.draw(site)),
                 "--width", str(width)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DEGENERATE)
    if code == EXIT_OK:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("scale", ["1e-310", "1e-200", "1e200", "1e300"])
def test_classify_measures_a_state_of_tiny_or_huge_norm_as_its_unit_multiple(
    capsys, tmp_path, scale
):
    # the squares of these norms under- or overflow a double; the report is
    # that of the unit-scale state, without a traceback or a zero-state refusal
    reports = {}
    for amplitude in ("1", scale):
        state = tmp_path / f"state_{amplitude}.txt"
        state.write_text(f"dim 8 2\namp 4 11 {amplitude} 0\namp 5 10 -{amplitude} 0\n")
        code, out, err = run_cli(capsys, [
            "classify", "--state", str(state),
            "--measure", str(FIXTURES / "position_measure.txt"),
        ])
        assert (code, err) == (EXIT_OK, ""), amplitude
        reports[amplitude] = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    unit, scaled = reports["1"], reports[scale]
    for key in ("verdict", "post-state Schmidt rank", "Slater rank"):
        assert scaled[key] == unit[key], key
    spectra = [[float(x) for x in report["post-state singular values"].split()]
               for report in (unit, scaled)]
    assert np.allclose(*spectra, rtol=1e-12)


def scaled_factors(kind: str, scale: float) -> SelectiveMeasure:
    """The fixtures' window or momentum measure at L=8, as dense factors times ``scale``."""
    space = SpaceSpec(8, 2)
    if kind == "window":
        factors = (window_projector(2, 1, space), window_projector(5, 1, space))
    else:
        measure = momentum_projector(1, 7, space)
        factors = (measure.factor_slot1, measure.factor_slot2)
    return SelectiveMeasure(*(OneParticleOperator(space, scale * f.entries) for f in factors))


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("kind", ["window", "momentum"])
@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e100])
def test_rescaled_factors_give_the_unit_scale_verdict(capsys, tmp_path, scale, kind, statistics):
    # an exact zero is negligible against a scale whose product with tol
    # underflows; at 1e-160 the momentum events are subnormal and move its
    # Schmidt rank, so the ranks are compared from 1e-100 up
    state_path = FIXTURES / "position_state.txt"
    state, stat = parse_state_file(state_path), Statistics(statistics)
    seen = {}
    for factor_scale in (1.0, scale):
        measure = scaled_factors(kind, factor_scale)
        result = measure_pair(measure, state, stat)
        assert classify(measure, state).tag is result.verdict.tag
        measure_path = tmp_path / f"measure_{factor_scale!r}.txt"
        write_measure_file(measure_path, measure)
        code, out, err = run_cli(capsys, [
            "classify", "--state", str(state_path), "--measure", str(measure_path),
            "--statistics", statistics, "--output", "json",
        ])
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["verdict"] == result.verdict.tag.value
        ranks = (len(report["singular_values"]), report["slater_rank"])
        seen[factor_scale] = (report["verdict"], ranks)
    unit, scaled = seen[1.0], seen[scale]
    assert scaled[0] == unit[0]
    if scale >= 1e-100:
        assert scaled[1] == unit[1]


@pytest.mark.parametrize("factor, amplitude, what", [
    ("1e160", "1", "an event overflows"),
    ("1e155", "1e-200", "the scale of the zero tests overflows"),
])
def test_overflow_exits_3_with_one_stderr_line(tmp_path, factor, amplitude, what):
    # a child process, so that numpy's floating-point warnings would reach stderr
    state, measure = tmp_path / "state.txt", tmp_path / "measure.txt"
    state.write_text(f"dim 8 2\namp 4 11 {amplitude} 0\namp 5 10 {amplitude} 0\n")
    measure.write_text(f"dim 8 2\nA 4 4 {factor} 0\nA 5 5 {factor} 0\n"
                       f"B 10 10 {factor} 0\nB 11 11 {factor} 0\n")
    result = subprocess.run(
        [sys.executable, "-m", "pairmeasure", "classify", "--state", str(state),
         "--measure", str(measure)],
        capture_output=True, text=True, env=child_env(),
    )
    assert (result.returncode, result.stdout) == (EXIT_DEGENERATE, "")
    assert result.stderr.startswith(f"error: {what}") and result.stderr.count("\n") == 1


def test_json_report_writes_an_overflowing_probability_as_null(capsys, tmp_path):
    # the squared raw norm of a state with amplitudes 1e200 overflows
    reports = {}
    for amplitude in ("1", "1e200"):
        state = tmp_path / f"state_{amplitude}.txt"
        state.write_text(f"dim 8 2\namp 4 11 {amplitude} 0\namp 5 10 -{amplitude} 0\n")
        code, out, err = run_cli(capsys, [
            "classify", "--state", str(state),
            "--measure", str(FIXTURES / "position_measure.txt"), "--output", "json",
        ])
        assert (code, err) == (EXIT_OK, "")
        reports[amplitude] = json.loads(out)
    unit, huge = reports["1"], reports["1e200"]
    assert huge["probability"] is None and unit["probability"] == pytest.approx(1.0)
    assert huge["verdict"] == unit["verdict"]
    assert np.allclose(huge["singular_values"], unit["singular_values"], rtol=1e-12)
