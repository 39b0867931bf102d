import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairmeasure.measurement
from pairmeasure import (
    DegenerateInputError,
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    VerdictTag,
    basis_vector,
    classify,
    measure_pair,
    mode_index,
    momentum_projector,
    momentum_representation,
    parse_measure_file,
    parse_state_file,
    permute,
    plane_wave,
    relabel_distinguishable,
    scenario_momentum_projection,
    scenario_position_windows,
    schmidt,
    sector,
    tensor_state,
    window_projector,
    write_measure_file,
    write_state_file,
)
from pairmeasure.cli import main
from pairmeasure.measurement import window_sites

from helpers import as_dense, identity_operator, random_unitary

SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1


def oracle_window_ratio(space, m_a, m_b, x_a, x_b, stat):
    """Collapsed amplitude ratio through dense pair-space matrices only."""
    sites = space.extrinsic_dim
    up_wave = plane_wave(m_a, UP, space).amplitudes
    down_wave = plane_wave(m_b, DOWN, space).amplitudes
    ref = np.outer(up_wave, down_wave).reshape(-1)
    dim = space.total_dim
    permuted = ref.reshape(dim, dim).T.reshape(-1)
    sign = -1.0 if stat is Statistics.FERMION else 1.0
    sym = (ref + sign * permuted) / np.sqrt(2)
    full = np.kron(
        window_projector(x_a, 1, space).entries, window_projector(x_b, 1, space).entries
    )
    raw = full @ sym
    direct = raw[mode_index(x_a, UP, space) * dim + mode_index(x_b, DOWN, space)]
    swapped = raw[mode_index(x_a, DOWN, space) * dim + mode_index(x_b, UP, space)]
    return swapped / direct


def test_build_pair_state_matches_sector_construction():
    up, down = plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE)
    state = sector(tensor_state(up, down), Statistics.FERMION)
    outer = np.outer(up.amplitudes, down.amplitudes)
    reference = (outer - outer.T) / np.sqrt(2)
    assert np.max(np.abs(state.matrix() - reference)) < 1e-14
    assert state.norm == pytest.approx(1.0, abs=1e-14)


def test_momentum_scenario_is_a_local_operation():
    for stat in Statistics:
        result = scenario_momentum_projection(SPACE, 1, 7, stat)
        assert result.verdict.tag is VerdictTag.LOCAL_OPERATION
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        assert result.report.schmidt_rank == 1
        assert result.evidence.rank_before == 1
        assert result.evidence.rank_after == 1
        assert not result.evidence.entangled_by_measure
        assert result.phase_check is None


def test_momentum_scenario_raw_state_keeps_the_half_weight():
    result = scenario_momentum_projection(SPACE, 1, 7, Statistics.FERMION)
    expected = (
        tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE)).amplitudes
        / np.sqrt(2)
    )
    assert np.max(np.abs(result.post_state.amplitudes - expected)) < 1e-12


def test_momentum_scenario_relabels_to_up_down_product():
    result = scenario_momentum_projection(SPACE, 1, 7, Statistics.FERMION)
    relabeled = result.relabeled
    assert relabeled is not None
    expected = np.zeros(4, dtype=complex)
    expected[UP * 2 + DOWN] = 1.0
    assert np.max(np.abs(relabeled.amplitudes - expected)) < 1e-10
    assert schmidt(relabeled).schmidt_rank == 1


def test_momentum_scenario_rejects_equal_modes():
    with pytest.raises(DegenerateInputError):
        scenario_momentum_projection(SPACE, 4, 4, Statistics.FERMION)


def test_position_scenario_fermion_phase():
    result = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.FERMION)
    assert result.verdict.tag is VerdictTag.ENTANGLING_MEASUREMENT
    assert result.probability == pytest.approx(1 / 64, abs=1e-12)
    check = result.phase_check
    assert check is not None
    assert abs(abs(check.measured) - 1.0) < 1e-10
    # m_b defaults to mode 7, so dk = -pi/2 and dx = 3: ratio -exp(-i dk dx) = +i
    assert check.measured == pytest.approx(1j, abs=1e-10)
    assert check.deviation < 1e-10
    assert result.report.schmidt_rank == 2
    assert result.report.entropy == pytest.approx(np.log(2), abs=1e-10)
    assert result.evidence.entangled_by_measure


def test_position_scenario_boson_phase_flips_sign():
    fermion = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.FERMION)
    boson = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.BOSON)
    assert boson.phase_check.measured == pytest.approx(
        -fermion.phase_check.measured, abs=1e-12
    )
    assert boson.phase_check.deviation < 1e-10


def test_position_scenario_matches_dense_oracle():
    for stat in Statistics:
        result = scenario_position_windows(SPACE, 1, 7, 2, 5, 1, stat)
        expected = oracle_window_ratio(SPACE, 1, 7, 2, 5, stat)
        assert result.phase_check.measured == pytest.approx(expected, abs=1e-12)


def test_position_scenario_magnitude_one_for_all_geometries():
    for mode in range(1, 8):
        for x_a in range(8):
            for x_b in range(8):
                if x_a == x_b:
                    continue
                result = scenario_position_windows(
                    SPACE, mode, None, x_a, x_b, 1, Statistics.FERMION
                )
                assert abs(abs(result.phase_check.measured) - 1.0) < 1e-10
                assert result.phase_check.deviation < 1e-10


def test_position_scenario_phase_steps_by_minus_dk():
    # moving Bob's window one site right multiplies the ratio by exp(-i dk)
    mode = 2
    dk = 2 * np.pi * (8 - mode) / 8 - 2 * np.pi * mode / 8
    first = scenario_position_windows(SPACE, mode, None, 1, 4, 1, Statistics.FERMION)
    second = scenario_position_windows(SPACE, mode, None, 1, 5, 1, Statistics.FERMION)
    step = second.phase_check.measured / first.phase_check.measured
    assert step == pytest.approx(np.exp(-1j * dk), abs=1e-10)


@pytest.mark.parametrize("stat", list(Statistics), ids=lambda stat: stat.value)
def test_position_scenario_phase_is_exact_on_a_large_lattice(stat):
    # dk * dx is reduced mod 2 pi with integers, as are the plane-wave phases
    result = scenario_position_windows(SpaceSpec(2048, 2), 2047, None, 2, 1000, 1, stat)
    assert result.phase_check.deviation < 1e-14


def test_position_scenario_same_site_windows_overlap():
    result = scenario_position_windows(SPACE, 1, None, 3, 3, 1, Statistics.FERMION)
    assert result.verdict.tag is VerdictTag.NON_ORTHOGONAL_EVENTS
    assert result.phase_check is None
    # the same-site collapse is a spin singlet on that site
    assert result.report.schmidt_rank == 2


def test_position_scenario_wide_windows_report_without_phase():
    result = scenario_position_windows(SPACE, 1, None, 1, 5, 3, Statistics.FERMION)
    assert result.verdict.tag is VerdictTag.ENTANGLING_MEASUREMENT
    assert result.phase_check is None
    assert result.relabeled is None
    assert result.probability > 0.0


def test_position_scenario_overlapping_wide_windows():
    result = scenario_position_windows(SPACE, 1, None, 2, 3, 3, Statistics.FERMION)
    assert result.verdict.tag is VerdictTag.NON_ORTHOGONAL_EVENTS
    assert result.phase_check is None


@settings(max_examples=60, deadline=None)
@given(
    sites=st.integers(2, 32),
    modes=st.tuples(st.integers(0, 31), st.none() | st.integers(0, 31)),
    centres=st.tuples(st.integers(0, 31), st.integers(0, 31)),
    width=st.sampled_from([1, 2, 3, "L"]),
    stat=st.sampled_from(Statistics),
    overlap=st.sampled_from([None, 0, 1]),
)
@example(8, (1, 7), (2, 3), 3, Statistics.FERMION, None)
@example(8, (1, 7), (2, 2), 1, Statistics.FERMION, None)
@example(8, (1, 7), (0, 7), 3, Statistics.FERMION, None)
@example(8, (1, 7), (1, 3), 3, Statistics.FERMION, None)
@example(8, (1, 7), (2, 5), 1, Statistics.FERMION, None)
def test_classify_on_the_written_scenario_gives_the_scenario_verdict(
    sites, modes, centres, width, stat, overlap
):
    # the same state and measure, once through the scenario and once through
    # their files, must get the same verdict from the same rule; ``overlap``
    # moves the second window onto the first or next to it
    space = SpaceSpec(sites, 2)
    m_a = modes[0] % sites
    m_b = None if modes[1] is None else modes[1] % sites
    x_a = centres[0] % sites
    x_b = centres[1] % sites if overlap is None else (x_a + overlap) % sites
    width = sites if width == "L" else width
    result = scenario_position_windows(space, m_a, m_b, x_a, x_b, width, stat)
    ref = tensor_state(
        plane_wave(m_a, UP, space),
        plane_wave((sites - m_a) % sites if m_b is None else m_b, DOWN, space),
    )
    measure = SelectiveMeasure(
        window_projector(x_a, width, space), window_projector(x_b, width, space)
    )
    with tempfile.TemporaryDirectory() as scratch:
        state_path, measure_path = Path(scratch, "state.txt"), Path(scratch, "measure.txt")
        write_state_file(state_path, ref)
        write_measure_file(measure_path, measure)
        parsed = classify(parse_measure_file(measure_path), parse_state_file(state_path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classify", "--state", str(state_path), "--measure",
                         str(measure_path), "--statistics", stat.value, "--output", "json"])
    payload = json.loads(out.getvalue())
    assert code == 0
    assert parsed.tag is result.verdict.tag
    assert payload["verdict"] == result.verdict.tag.value
    assert payload["probability"] == pytest.approx(result.probability, rel=1e-12, abs=1e-15)
    # the windows' events are exclusive exactly when they share no site
    covered = [set(window_sites(x, width, sites)) for x in (x_a, x_b)]
    disjoint = covered[0].isdisjoint(covered[1])
    expected = VerdictTag.ENTANGLING_MEASUREMENT if disjoint else VerdictTag.NON_ORTHOGONAL_EVENTS
    assert result.verdict.tag is expected


def test_relabel_extracts_the_spin_block():
    result = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.FERMION)
    relabeled = result.relabeled
    assert relabeled is not None
    ratio = relabeled.amplitudes[DOWN * 2 + UP] / relabeled.amplitudes[UP * 2 + DOWN]
    assert ratio == pytest.approx(result.phase_check.measured, abs=1e-12)
    assert schmidt(relabeled).schmidt_rank == 2
    assert schmidt(relabeled).entropy == pytest.approx(np.log(2), abs=1e-10)


def test_relabel_rejects_support_outside_labels():
    space = SpaceSpec(4, 2)
    spread = tensor_state(plane_wave(0, UP, space), plane_wave(1, DOWN, space))
    with pytest.raises(ValueError):
        relabel_distinguishable(spread, (0, 1))


def test_relabel_rejects_three_site_support():
    space = SpaceSpec(4, 2)
    amps = np.zeros(64, dtype=complex)
    for x1, x2 in ((0, 1), (0, 2), (3, 1)):
        amps[mode_index(x1, UP, space) * 8 + mode_index(x2, DOWN, space)] = 1.0
    state = TwoParticleState(space, amps / np.linalg.norm(amps))
    with pytest.raises(ValueError):
        relabel_distinguishable(state, (0, 1))


def test_relabel_rejects_zero_state():
    with pytest.raises(DegenerateInputError):
        relabel_distinguishable(TwoParticleState(SpaceSpec(2, 2), np.zeros(16)), (0, 1))


def test_relabel_rejects_labels_off_the_lattice():
    space = SpaceSpec(4, 2)
    state = tensor_state(basis_vector(0, UP, space), basis_vector(3, DOWN, space))
    with pytest.raises(IndexError):
        relabel_distinguishable(state, (0, 4))


def test_scenarios_need_a_spin_half_factor():
    space = SpaceSpec(4, 1)
    with pytest.raises(ValueError, match="spin_dim >= 2"):
        scenario_momentum_projection(space, 1, 3, Statistics.FERMION)
    with pytest.raises(ValueError, match="spin_dim >= 2"):
        scenario_position_windows(space, 1, None, 0, 2, 1, Statistics.FERMION)


def test_phase_check_rejects_off_circle_ratios():
    from pairmeasure import PhaseCheck

    with pytest.raises(ValueError):
        PhaseCheck(measured=0.5 + 0.0j, predicted=1.0 + 0.0j, deviation=0.5)


def test_relabel_accepts_exact_two_site_support():
    space = SpaceSpec(4, 2)
    state = tensor_state(basis_vector(1, UP, space), basis_vector(3, DOWN, space))
    relabeled = relabel_distinguishable(state, (1, 3))
    expected = np.zeros(4, dtype=complex)
    expected[UP * 2 + DOWN] = 1.0
    assert np.array_equal(relabeled.amplitudes, expected)


def test_scenarios_apply_the_measure_twice_and_decompose_twice():
    # two events, then one SVD of the post-state, made by the one schmidt
    # call, and one of the direct event
    calls = {
        "momentum": lambda: scenario_momentum_projection(SPACE, 1, 5, Statistics.FERMION),
        "windows": lambda: scenario_position_windows(
            SPACE, 1, None, 2, 5, 1, Statistics.FERMION
        ),
    }
    for name, call in calls.items():
        with mock.patch(
            "pairmeasure.measurement.apply_measure",
            wraps=pairmeasure.measurement.apply_measure,
        ) as apply, mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd, mock.patch(
            "pairmeasure.measurement.schmidt", wraps=pairmeasure.measurement.schmidt
        ) as report, mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
            call()
        assert (apply.call_count, svd.call_count) == (2, 2), name
        assert report.call_count == 1, name
        # one QR for the reference's sector norm, one for the Slater test
        assert qr.call_count == 2, name


def test_measure_pair_sizes_and_normalizes_once():
    ref = tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE))
    for measure in (
        momentum_projector(1, 7, SPACE),
        SelectiveMeasure(window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)),
    ):
        with mock.patch(
            "pairmeasure.measurement.measure_scale",
            wraps=pairmeasure.measurement.measure_scale,
        ) as scale, mock.patch.object(
            TwoParticleState, "normalize", autospec=True,
            side_effect=TwoParticleState.normalize,
        ) as normalize:
            measure_pair(measure, ref, Statistics.FERMION)
        assert (scale.call_count, normalize.call_count) == (1, 1)


def test_momentum_scenario_computes_the_born_rule_flag():
    for stat in Statistics:
        result = scenario_momentum_projection(SPACE, 1, 7, stat)
        assert result.born_rule is True
        assert result.scale == pytest.approx(1 / 8, abs=1e-15)


def test_measure_pair_flags_general_measures_and_impossible_outcomes():
    ref = tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE))
    raising = np.zeros((16, 16))
    raising[0, 1] = 1.0
    general = SelectiveMeasure(
        OneParticleOperator(SPACE, raising), identity_operator(SPACE)
    )
    result = measure_pair(general, ref, Statistics.FERMION)
    assert result.born_rule is False
    assert result.report is not None
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    result = measure_pair(SelectiveMeasure(zero, zero), ref, Statistics.BOSON)
    assert result.verdict.tag is VerdictTag.BOTH_ZERO
    assert result.probability == 0.0
    assert result.report is None and result.evidence is None
    assert measure_pair(momentum_projector(1, 7, SPACE), ref, Statistics.BOSON).born_rule


def test_impossible_outcome_reports_no_phase_and_no_relabeled_state():
    # tol large enough that the collapsed vector counts as zero
    for stat in Statistics:
        result = scenario_position_windows(SPACE, 1, None, 2, 5, 1, stat, tol=0.9)
        assert result.post_state_normalized is None and result.report is None
        assert result.phase_check is None and result.relabeled is None


def test_measure_pair_pads_the_core_spectrum_to_total_dim():
    for result in (
        scenario_momentum_projection(SPACE, 1, 5, Statistics.FERMION),
        scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.BOSON),
    ):
        dense = schmidt(result.post_state_normalized)
        sigma = result.report.singular_values
        # both measures have 2 x 2 cores: two computed values, then exact zeros
        assert sigma.shape == (SPACE.total_dim,)
        assert np.all(sigma[2:] == 0.0)
        assert np.max(np.abs(sigma - dense.singular_values)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(2, 6),
    labels=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    ranks=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    spread=st.sampled_from([None, 0, 1]),
)
def test_relabel_of_factored_states_matches_dense(seed, sites, labels, ranks, spread):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    labels = tuple(label % sites for label in labels)
    bases = []
    for slot, (label, rank) in enumerate(zip(labels, ranks)):
        if slot == spread:
            # support on every site of one slot: the relabeling must refuse it
            bases.append(random_unitary(rng, dim)[:, :rank])
        else:
            basis = np.zeros((dim, rank), dtype=complex)
            basis[2 * label: 2 * label + 2] = random_unitary(rng, 2)[:, :rank]
            bases.append(basis)
    core = rng.standard_normal(ranks) + 1j * rng.standard_normal(ranks)
    state = TwoParticleState.from_factors(space, bases[0], core, bases[1])
    # permute leaves transposed cores, dense or factored
    swapped = labels[::-1]
    cases = [(state, labels), (permute(state), swapped), (permute(as_dense(state)), swapped)]
    for candidate, tags in cases:
        want = as_dense(candidate)
        if spread is not None:
            for form in (candidate, want):
                with pytest.raises(ValueError, match="support outside"):
                    relabel_distinguishable(form, tags)
        else:
            got = relabel_distinguishable(candidate, tags)
            expected = relabel_distinguishable(want, tags)
            assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12


def deletion_oracle(matrix, labels, spins):
    """Spin block and off-label remainder of a dense matrix, with np.delete."""
    rows = slice(labels[0] * spins, (labels[0] + 1) * spins)
    cols = slice(labels[1] * spins, (labels[1] + 1) * spins)
    band = matrix[rows]
    remainder = np.hypot(
        np.linalg.norm(np.delete(band, cols, axis=1)),
        np.linalg.norm(np.delete(matrix, rows, axis=0)),
    )
    return band[:, cols], remainder


@pytest.mark.parametrize("labels", [(0, 5), (5, 0)])
@pytest.mark.parametrize("leak", [0.0, 1e-7])
def test_relabel_at_the_lattice_ends_matches_deletion(labels, leak):
    # at the first and last site one slice before or after each label is
    # empty; block and refusal must still be those of the dense matrix
    rng = np.random.default_rng(47)
    space = SpaceSpec(6, 2)
    bases = []
    for label in labels:
        basis = np.zeros((12, 2), dtype=complex)
        basis[2 * label: 2 * label + 2] = random_unitary(rng, 2)
        basis += leak * (rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
        bases.append(np.linalg.qr(basis)[0])
    core = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    state = TwoParticleState.from_factors(space, bases[0], core, bases[1])
    block, remainder = deletion_oracle(state.matrix(), labels, 2)
    ratio = remainder / state.norm
    tols = [1e-10] if leak == 0.0 else [ratio / 2, ratio * 2]
    for tol in tols:
        for form in (state, as_dense(state)):
            if remainder < tol * state.norm:
                got = relabel_distinguishable(form, labels, tol)
                want = block.reshape(-1) / np.linalg.norm(block)
                assert np.max(np.abs(got.amplitudes - want)) < 1e-12
            else:
                with pytest.raises(DegenerateInputError, match="support outside"):
                    relabel_distinguishable(form, labels, tol)


def test_state_norms_are_kept_and_match_the_amplitudes():
    states = []
    for stat in Statistics:
        for result in (
            scenario_momentum_projection(SPACE, 1, 5, stat),
            scenario_position_windows(SPACE, 1, None, 2, 5, 1, stat),
        ):
            states += [result.post_state, result.post_state_normalized, result.relabeled,
                       result.event_pair.event_direct, result.event_pair.event_permuted]
    rng = np.random.default_rng(53)
    dense = TwoParticleState(SPACE, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    for base in (states[0], states[5], dense):
        states += [permute(base), base.normalize(), momentum_representation(base)]
    for state in states:
        first = state.norm
        assert abs(first - np.linalg.norm(state.amplitudes)) <= 1e-14 * first
        assert state.norm is first


def test_scenarios_keep_their_states_factored():
    momentum = scenario_momentum_projection(SPACE, 1, 5, Statistics.FERMION)
    windows = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.BOSON)
    for result in (momentum, windows):
        for state in (result.post_state, result.post_state_normalized,
                      result.event_pair.event_direct, result.event_pair.event_permuted):
            assert state.left.shape == (16, 2) and state.core.shape == (2, 2)
    assert momentum_representation(momentum.post_state).left is not None
