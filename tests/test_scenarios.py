import cmath
import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairmeasure.entanglement
import pairmeasure.measurement
import pairmeasure.scenarios
import pairmeasure.symmetry
from pairmeasure import (
    ZERO_TOL,
    DegenerateInputError,
    EbmEvidence,
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    Verdict,
    VerdictTag,
    classify,
    measure_pair,
    mode_index,
    momentum_projector,
    parse_measure_file,
    parse_state_file,
    permute,
    plane_wave,
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
from pairmeasure.scenarios import _spin_state

from helpers import (
    as_dense,
    assert_spectra_match,
    deletion_oracle,
    identity_operator,
    momentum_matrix,
    result_bits,
)

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
    # the opposite momentum of modes 0 and L/2 is the mode itself
    for mode in (0, 4):
        with pytest.raises(DegenerateInputError):
            scenario_momentum_projection(SPACE, mode, None, Statistics.FERMION)


@pytest.mark.parametrize("sites", [3, 5, 8, 17])
def test_momentum_scenario_defaults_to_the_opposite_mode(sites):
    space = SpaceSpec(sites, 2)
    for m_a in range(1, sites):
        if 2 * m_a == sites:
            continue
        for stat in Statistics:
            default = scenario_momentum_projection(space, m_a, None, stat)
            opposite = scenario_momentum_projection(space, m_a, sites - m_a, stat)
            assert result_bits(default) == result_bits(opposite)


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


# Largest error the closed-form test below allows on an O(1) quantity. The
# scenarios form no n-long sum: every change of basis between their bases is
# exact (the 0/1 selections and the phases of ``hilbert._Basis.to``), so
# what is left is a fixed chain of roundings on r x r cores (the phases'
# angle, cos/sin and 1/sqrt(L), the sector's 1/sqrt(2), a 2 x 2 SVD, sqrt,
# log, sums of at most 2w terms), a few eps at any lattice size.
CLOSED_FORM_BOUND = 16 * np.finfo(float).eps


@st.composite
def closed_form_cases(draw):
    sites = draw(st.integers(2, 2048) | st.integers(2049, 2**20) | st.integers(2**20 + 1, 2**40))
    m_a = draw(st.integers(0, sites - 1))
    m_b = (m_a + draw(st.integers(1, sites - 1))) % sites
    window_mode_b = draw(st.none() | st.integers(0, sites - 1))
    width = draw(st.integers(1, min(sites // 2, 8)))
    centre = draw(st.integers(0, sites - 1))
    # windows are disjoint when their centres are at least w apart around the ring
    offset = draw(st.integers(width, sites - width))
    stat = draw(st.sampled_from(list(Statistics)))
    # a window's event norm is w/L against a scale of 1: keep tol below it
    tol = 10.0 ** draw(st.floats(-15.0, min(-4.0, -1.0 - math.log10(sites))))
    return sites, (m_a, m_b), window_mode_b, centre, offset, width, stat, tol


@settings(max_examples=150, deadline=None)
@given(closed_form_cases())
@example((2, (0, 1), None, 0, 1, 1, Statistics.FERMION, 1e-12))
@example((2048, (2047, 0), None, 2, 998, 1, Statistics.BOSON, 1e-12))
@example((2048, (1, 2047), 5, 0, 1024, 8, Statistics.FERMION, 1e-4))
@example((1999, (1000, 7), None, 1998, 1, 1, Statistics.BOSON, 1e-10))
@example((1000003, (1, 1000002), None, 0, 500001, 1, Statistics.FERMION, 1e-12))
@example((1000003, (999999, 4), 17, 1000002, 3, 3, Statistics.BOSON, 1e-10))
@example((2**20 - 1, (2**19, 2**20 - 2), None, 7, 2**19 + 5, 1, Statistics.BOSON, 1e-12))
@example((2**20 - 1, (3, 2**19 - 1), 2**20 - 3, 2**20 - 2, 8, 8, Statistics.FERMION, 1e-8))
@example((2**20, (2**20 - 1, 1), None, 2**20 - 1, 2**19, 1, Statistics.FERMION, 1e-12))
@example((2**20, (12345, 2**19), 999, 5, 3, 3, Statistics.BOSON, 1e-10))
@example((2**40, (2**40 - 1, 1), None, 0, 2**39, 1, Statistics.FERMION, 1e-14))
@example((2**40 - 1, (12345, 2**39), 2**40 - 2, 2**40 - 2, 8, 8, Statistics.BOSON, 1e-15))
def test_scenarios_match_closed_forms_at_any_lattice_size(case):
    """Every field of both scenarios against the paper's closed forms.

    Momentum projection (distinct modes): a local operation at probability
    1/2, Schmidt rank 1 and the spin state |up, down>. Disjoint windows of
    width w: an entangling measurement at probability w^2/L^2, singular
    values 1/sqrt(2), entropy ln 2, evidence 1 -> 2 and, at w = 1, the phase
    -+exp(-i dk dx) between the spin state's two amplitudes. Each to a few
    eps (``CLOSED_FORM_BOUND``), relative to the quantity's size.
    """
    sites, modes, window_mode_b, centre, offset, width, stat, tol = case
    space = SpaceSpec(sites, 2)
    bound = CLOSED_FORM_BOUND
    m_a, m_b = modes
    result = scenario_momentum_projection(space, m_a, m_b, stat, tol)
    pair = result.event_pair
    assert result.verdict == Verdict(VerdictTag.LOCAL_OPERATION, tol)
    assert abs(result.probability - 0.5) <= bound
    assert abs(result.post_state.norm ** 2 - 0.5) <= bound
    assert abs(result.post_state_normalized.norm - 1.0) <= bound
    assert abs(pair.norm_direct - 1.0) <= bound and pair.norm_permuted <= bound
    assert abs(pair.event_overlap) <= bound and abs(pair.ref_overlap) <= bound
    assert abs(result.scale * sites - 1.0) <= bound and result.born_rule
    report = result.report
    assert (report.schmidt_rank, report.slater_rank) == (1, None)
    assert abs(report.singular_values[0] - 1.0) <= bound
    assert np.all(report.singular_values[1:] <= bound) and report.entropy <= bound
    assert result.evidence == EbmEvidence(1, 1, False)
    assert result.phase_check is None
    expected = np.zeros(4)
    expected[UP * 2 + DOWN] = 1.0
    assert np.max(np.abs(result.relabeled.amplitudes - expected)) <= bound

    m_b = window_mode_b
    x_a, x_b = centre, (centre + offset) % sites
    result = scenario_position_windows(space, m_a, m_b, x_a, x_b, width, stat, tol)
    pair = result.event_pair
    weight = width / sites
    probability = weight**2
    assert result.verdict == Verdict(VerdictTag.ENTANGLING_MEASUREMENT, tol)
    assert abs(result.probability - probability) <= bound * probability
    assert abs(result.post_state.norm ** 2 - probability) <= bound * probability
    assert abs(result.post_state_normalized.norm - 1.0) <= bound
    for norm in (pair.norm_direct, pair.norm_permuted):
        assert abs(norm - weight) <= bound * weight
    assert abs(pair.event_overlap) <= bound * probability
    assert abs(pair.ref_overlap) <= bound * weight
    assert result.scale == 1.0 and result.born_rule
    report = result.report
    assert (report.schmidt_rank, report.slater_rank) == (2, None)
    assert np.max(np.abs(report.singular_values[:2] - 2**-0.5)) <= bound
    assert np.all(report.singular_values[2:] <= bound)
    assert abs(report.entropy - np.log(2)) <= bound
    assert result.evidence == EbmEvidence(1, 2, True)
    if width > 1:
        assert result.phase_check is None and result.relabeled is None
        return
    if m_b is None:
        m_b = (sites - m_a) % sites
    # -+exp(-i dk dx), dk dx = 2 pi (m_b - m_a)(x_b - x_a)/L, in exact integers mod L
    turns = (m_b - m_a) * (x_b - x_a) % sites
    predicted = stat.sign * cmath.exp(-2j * cmath.pi * turns / sites)
    check = result.phase_check
    assert abs(check.measured - predicted) <= bound and check.deviation <= bound
    spins = result.relabeled.amplitudes
    direct, swapped = spins[UP * 2 + DOWN], spins[DOWN * 2 + UP]
    assert abs(abs(direct) - 2**-0.5) <= bound
    assert abs(swapped - predicted * direct) <= bound
    assert abs(spins[UP * 2 + UP]) <= bound and abs(spins[DOWN * 2 + DOWN]) <= bound


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


@settings(max_examples=60, deadline=None)
@given(
    sites=st.integers(2, 64),
    modes=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    centres=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    same_site=st.booleans(),
    stat=st.sampled_from(Statistics),
)
@example(8, (1, 7), (2, 5), False, Statistics.FERMION)
@example(2, (0, 1), (1, 1), True, Statistics.BOSON)
def test_relabeled_states_match_the_deletion_oracle(sites, modes, centres, same_site, stat):
    # the spin block at the two labels, cut from the dense post-state (in
    # momenta for the momentum scenario), is the relabeled state, and the
    # dense post-state has no support off the labels
    space = SpaceSpec(sites, 2)
    m_a, m_b = (mode % sites for mode in modes)
    x_a = centres[0] % sites
    x_b = x_a if same_site else centres[1] % sites
    windows = scenario_position_windows(space, m_a, m_b, x_a, x_b, 1, stat)
    cases = [(windows, windows.post_state.matrix(), (x_a, x_b))]
    if m_a != m_b:
        momenta = scenario_momentum_projection(space, m_a, m_b, stat)
        cases.append((momenta, momentum_matrix(momenta.post_state), (m_a, m_b)))
    for result, matrix, labels in cases:
        block, remainder = deletion_oracle(matrix, labels, space.spin_dim)
        want = block.reshape(-1) / np.linalg.norm(block)
        assert np.max(np.abs(result.relabeled.amplitudes - want)) < 1e-12, labels
        assert remainder < 1e-12 * result.post_state.norm, labels


@pytest.mark.parametrize("labels", [(0, 5), (5, 0), (5, 4)])
@pytest.mark.parametrize("stat", list(Statistics))
def test_relabel_at_the_lattice_ends_matches_deletion(labels, stat):
    # at the first and last site one slice before or after each label is
    # empty; both scenarios' spin states must still be the dense block
    space = SpaceSpec(6, 2)
    windows = scenario_position_windows(space, 1, 4, *labels, 1, stat)
    momenta = scenario_momentum_projection(space, *labels, stat)
    cases = [(windows, windows.post_state.matrix()), (momenta, momentum_matrix(momenta.post_state))]
    for result, matrix in cases:
        block, remainder = deletion_oracle(matrix, labels, space.spin_dim)
        want = block.reshape(-1) / np.linalg.norm(block)
        assert np.max(np.abs(result.relabeled.amplitudes - want)) < 1e-12
        assert remainder < 1e-12 * result.post_state.norm


def test_relabel_accepts_exact_two_site_support():
    # one spin up and one down: the spin state at sites 1 and 3 has no
    # up-up or down-down amplitude at all, and equal weight on the other two
    space = SpaceSpec(4, 2)
    for stat in Statistics:
        relabeled = scenario_position_windows(space, 1, None, 1, 3, 1, stat).relabeled
        amps = relabeled.amplitudes
        assert amps[UP * 2 + UP] == 0.0 and amps[DOWN * 2 + DOWN] == 0.0
        assert np.abs(amps[[UP * 2 + DOWN, DOWN * 2 + UP]]) == pytest.approx(
            [0.5**0.5, 0.5**0.5], abs=1e-12
        )
        assert relabeled.norm == pytest.approx(1.0, abs=1e-12)


def test_relabel_rejects_zero_state():
    # an impossible outcome leaves no post-state to read spins off
    ref = tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE))
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    result = measure_pair(SelectiveMeasure(zero, zero), ref, Statistics.FERMION)
    assert result.post_state_normalized is None
    assert _spin_state(result.post_state_normalized) is None


def test_relabel_rejects_labels_off_the_lattice():
    space = SpaceSpec(4, 2)
    fermion = Statistics.FERMION
    for label in (-1, 4):
        calls = (
            lambda: scenario_position_windows(space, 1, None, label, 2, 1, fermion),
            lambda: scenario_position_windows(space, 1, None, 0, label, 1, fermion),
            lambda: scenario_momentum_projection(space, label, 2, fermion),
            lambda: scenario_momentum_projection(space, 1, label, fermion),
        )
        for call in calls:
            with pytest.raises(IndexError, match="out of range"):
                call()


def test_relabel_rejects_support_outside_labels():
    # a window of more than one site tags no single site, so no spin state
    # is handed over, though the outcome is possible
    space = SpaceSpec(4, 2)
    for width in (2, space.extrinsic_dim):
        for stat in Statistics:
            result = scenario_position_windows(space, 1, None, 0, 2, width, stat)
            assert result.post_state_normalized is not None
            assert result.relabeled is None and result.phase_check is None


def test_relabel_rejects_three_site_support():
    # disjoint width-3 windows entangle, but the post-state is spread over
    # three sites per slot: the block at the centres is not all of it
    result = scenario_position_windows(SPACE, 1, None, 1, 5, 3, Statistics.FERMION)
    assert result.verdict.tag is VerdictTag.ENTANGLING_MEASUREMENT
    assert result.relabeled is None and result.phase_check is None
    _, remainder = deletion_oracle(result.post_state.matrix(), (1, 5), SPACE.spin_dim)
    assert remainder > 0.5 * result.post_state.norm


@settings(max_examples=30, deadline=None)
@given(
    sites=st.integers(2, 32),
    modes=st.tuples(st.integers(0, 31), st.integers(1, 31)),
    centres=st.tuples(st.integers(0, 31), st.integers(0, 31)),
    stat=st.sampled_from(Statistics),
)
def test_relabeled_state_does_not_depend_on_tol(sites, modes, centres, stat):
    # the spin state is the post-state's core, so no tol enters it while the
    # outcome is possible
    space = SpaceSpec(sites, 2)
    m_a = modes[0] % sites
    m_b = (m_a + modes[1] % (sites - 1) + 1) % sites
    x_a, x_b = (centre % sites for centre in centres)
    tols = (float(np.finfo(float).eps), 1e-16, 1e-10, 1e-3)
    for run in (
        lambda tol: scenario_momentum_projection(space, m_a, m_b, stat, tol),
        lambda tol: scenario_position_windows(space, m_a, m_b, x_a, x_b, 1, stat, tol),
    ):
        states = [run(tol).relabeled.amplitudes for tol in tols]
        for state in states[1:]:
            assert np.array_equal(state, states[0])


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


def test_scenarios_apply_the_measure_twice_and_decompose_twice():
    # two events, then one SVD call on the stack of the post-state's and the
    # direct event's r_A x r_B cores, whose first spectrum the one report
    # builder turns into the report
    calls = {
        "momentum": lambda: scenario_momentum_projection(SPACE, 1, 5, Statistics.FERMION),
        "windows": lambda: scenario_position_windows(
            SPACE, 1, None, 2, 5, 1, Statistics.FERMION
        ),
        "overlapping windows": lambda: scenario_position_windows(
            SPACE, 1, None, 2, 2, 1, Statistics.FERMION
        ),
    }
    # The reference's sector norm and the Slater test take the closed form
    # whenever a state's two bases are nearly orthogonal; the post-state of
    # overlapping windows has the same basis on both sides, so its Slater
    # test takes the one QR.
    qr_calls = {"momentum": 0, "windows": 0, "overlapping windows": 1}
    for name, call in calls.items():
        with mock.patch(
            "pairmeasure.measurement.apply_measure",
            wraps=pairmeasure.measurement.apply_measure,
        ) as apply, mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd, mock.patch(
            "pairmeasure.measurement._report", wraps=pairmeasure.measurement._report
        ) as report, mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
            call()
        assert (apply.call_count, svd.call_count) == (2, 1), name
        assert svd.call_args.args[0].shape == (2, 2, 2), name
        assert report.call_count == 1, name
        assert qr.call_count == qr_calls[name], name


def test_a_warm_scenario_call_allocates_no_basis_sized_array():
    # at L = 2048 one n x 2 complex array is 128 KiB; a call holds its bases
    # in closed form and allocates only r-sized arrays
    space = SpaceSpec(2048, 2)
    limit = space.total_dim * 2 * np.dtype(complex).itemsize
    calls = {
        "momentum": lambda: scenario_momentum_projection(space, 3, None, Statistics.FERMION),
        "windows": lambda: scenario_position_windows(
            space, 3, None, 100, 900, 1, Statistics.FERMION
        ),
    }
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak)


def test_a_cold_scenario_call_at_a_million_sites_allocates_no_complex_column():
    # At L = 2^20, n = 2^21, one n-long complex column is 32 MiB. A first
    # call with these labels builds its bases in closed form, O(w * spins),
    # and reports its core's spectrum, so what it allocates does not grow
    # with L: the same fixed peak holds at L = 2^40. There a window's event
    # norm w/L is below the default tol, which the smaller tol keeps under it.
    limit = 64 * 2**10
    for sites, tol in ((2**20, ZERO_TOL), (2**40, 1e-14)):
        space = SpaceSpec(sites, 2)
        calls = {
            "momentum": lambda: scenario_momentum_projection(
                space, 5, None, Statistics.FERMION, tol
            ),
            "windows, width 1": lambda: scenario_position_windows(
                space, 7, None, 10, sites // 2, 1, Statistics.BOSON, tol
            ),
            "windows, width 3": lambda: scenario_position_windows(
                space, sites - 1, 3, sites - 1, 100, 3, Statistics.FERMION, tol
            ),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                result = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (sites, name, peak)
            core = result.post_state_normalized.core
            assert result.born_rule and result.report.singular_values.shape == (min(core.shape),)


def test_a_lattice_above_2_to_the_1021_sites_is_refused_by_name():
    # The phase angle 2*pi*(m*x mod L) of a plane wave overflows a double once
    # m*x mod L passes about 2^1021.4, and 1/sqrt(L) raises OverflowError from
    # L = 2^1024 up. At the ceiling every phase is finite.
    for sites in (2**1022, 2**1024, 10**400):
        space = SpaceSpec(sites, 2)
        calls = [
            lambda: scenario_momentum_projection(space, 1, None, Statistics.FERMION),
            lambda: scenario_position_windows(space, 1, None, 2, 5, 1, Statistics.FERMION),
            lambda: scenario_position_windows(space, 1, 3, 2, 5, 1, Statistics.BOSON),
            lambda: plane_wave(0, 0, space),
        ]
        for call in calls:
            with pytest.raises(DegenerateInputError, match=r"^plane waves need .* 2\*\*1021 sites"):
                call()
    space = SpaceSpec(2**1021, 2)
    momentum = scenario_momentum_projection(space, 1, None, Statistics.FERMION)
    assert momentum.verdict.tag is VerdictTag.LOCAL_OPERATION
    # the windows meet turn counts m*x mod L just below 2^1021; w/L reads zero
    windows = scenario_position_windows(space, 1, None, 2, 5, 1, Statistics.FERMION)
    assert windows.verdict.tag is VerdictTag.BOTH_ZERO


def test_a_window_against_a_plane_wave_measures_any_lattice_without_a_column():
    # The post-state holds window coordinates on one side and plane waves on
    # the other, whose L^H R has ||.||_F^2 = w * spins / L: its exchange norm
    # takes the nearly-orthogonal closed form, with no QR of n-long columns.
    limit = 64 * 2**10
    for sites in (2**20, 2**30):
        space = SpaceSpec(sites, 2)
        ref = pairmeasure.scenarios._reference_state(space, 3, 5)
        measure = SelectiveMeasure(
            window_projector(7, 3, space), momentum_projector(0, 5, space).factor_slot2
        )
        for stat in Statistics:
            tracemalloc.start()
            try:
                with mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
                    result = measure_pair(measure, ref, stat)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (sites, stat, peak)
            assert qr.call_count == 0, (sites, stat)
            assert result.verdict.tag is VerdictTag.LOCAL_OPERATION
            assert result.probability == pytest.approx(3 / (2 * sites), rel=1e-12)
            assert result.report.schmidt_rank == 1


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


def test_scenarios_report_their_two_core_singular_values():
    for result in (
        scenario_momentum_projection(SPACE, 1, 5, Statistics.FERMION),
        scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.BOSON),
    ):
        dense = schmidt(as_dense(result.post_state_normalized))
        sigma = result.report.singular_values
        # both measures have 2 x 2 cores; the dense spectrum has total_dim values
        assert sigma.shape == (2,) and dense.singular_values.shape == (SPACE.total_dim,)
        assert_spectra_match(sigma, dense.singular_values)


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
        states += [permute(base), base.normalize()]
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
