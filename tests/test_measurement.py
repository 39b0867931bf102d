import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairmeasure import (
    DegenerateInputError,
    DimensionMismatchError,
    InputTooLargeError,
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    VerdictTag,
    apply_measure,
    classify,
    collapse,
    events,
    inner_product,
    is_projector_valued,
    measure_pair,
    measure_scale,
    mode_index,
    momentum_projector,
    permute,
    plane_wave,
    scenario_momentum_projection,
    scenario_position_windows,
    schmidt,
    sector,
    tensor_state,
    window_projector,
)
from pairmeasure.entanglement import EbmEvidence, _rank
from pairmeasure.hilbert import ZERO_TOL, _negligible
from pairmeasure.measurement import window_sites

from helpers import (
    as_dense,
    assert_spectra_match,
    brute_force_verdict,
    decision_margins,
    identity_measure,
    identity_operator,
    random_factored_state,
    random_measure,
    random_state,
    random_unitary,
    random_vector,
    result_bits,
)

SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1


def momentum_pair(m_a, m_b, space=SPACE, spin_a=UP, spin_b=DOWN):
    return tensor_state(plane_wave(m_a, spin_a, space), plane_wave(m_b, spin_b, space))


def test_identity_measure_leaves_states_alone():
    rng = np.random.default_rng(31)
    state = random_state(rng, SPACE)
    out = apply_measure(identity_measure(SPACE), state)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) == 0.0


def test_apply_measure_matches_per_slot_action():
    # oracle: act on each factor of a product state separately
    rng = np.random.default_rng(32)
    space = SpaceSpec(3, 2)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, v = random_vector(rng, space), random_vector(rng, space)
        measure = SelectiveMeasure(
            OneParticleOperator(space, a), OneParticleOperator(space, b)
        )
        out = apply_measure(measure, tensor_state(u, v))
        expected = np.outer(a @ u.amplitudes, b @ v.amplitudes).reshape(-1)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_momentum_projection_collapses_fermion_pair():
    fermion = sector(momentum_pair(1, 7), Statistics.FERMION)
    measure = momentum_projector(1, 7, SPACE)
    out = apply_measure(measure, fermion)
    expected = momentum_pair(1, 7).amplitudes / np.sqrt(2)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_events_momentum_projector_kills_permuted_event():
    pair = events(momentum_projector(1, 7, SPACE), momentum_pair(1, 7))
    assert pair.norm_direct == pytest.approx(1.0, abs=1e-12)
    assert pair.norm_permuted < 1e-14
    assert pair.norm_direct == pytest.approx(pair.event_direct.norm)
    assert pair.norm_permuted == pytest.approx(pair.event_permuted.norm)


def test_events_zero_measure_annihilates_both():
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    pair = events(SelectiveMeasure(zero, zero), momentum_pair(1, 7))
    assert pair.norm_direct == 0.0
    assert pair.norm_permuted == 0.0


def test_events_disjoint_windows_are_orthogonal():
    measure = SelectiveMeasure(
        window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
    )
    pair = events(measure, momentum_pair(1, 7))
    assert pair.norm_direct == pytest.approx(1 / 8, abs=1e-12)
    assert pair.norm_permuted == pytest.approx(1 / 8, abs=1e-12)
    assert abs(pair.event_overlap) < 1e-14
    assert abs(pair.ref_overlap) < 1e-14


def test_classify_momentum_projector_is_local_operation():
    verdict = classify(momentum_projector(1, 7, SPACE), momentum_pair(1, 7))
    assert verdict.tag is VerdictTag.LOCAL_OPERATION


def test_classify_disjoint_windows_entangle():
    measure = SelectiveMeasure(
        window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
    )
    verdict = classify(measure, momentum_pair(1, 7))
    assert verdict.tag is VerdictTag.ENTANGLING_MEASUREMENT


def test_classify_same_site_windows_on_same_spin_pair_overlap():
    # with equal spins the two events are proportional, not just non-orthogonal
    measure = SelectiveMeasure(
        window_projector(3, 1, SPACE), window_projector(3, 1, SPACE)
    )
    same_spin = momentum_pair(1, 7, spin_a=UP, spin_b=UP)
    pair = events(measure, same_spin)
    assert pair.norm_direct > 1e-3 and pair.norm_permuted > 1e-3
    assert abs(pair.event_overlap) == pytest.approx(
        pair.norm_direct * pair.norm_permuted, abs=1e-12
    )
    assert classify(measure, same_spin).tag is VerdictTag.NON_ORTHOGONAL_EVENTS


def test_classify_identity_measure_follows_the_literal_rule():
    # the identity selects nothing: both events survive, and their vectors
    # happen to be orthogonal on this state, but A^H B = I^H I != 0, so the
    # events A x B and B x A are not exclusive and the verdict says so
    verdict = classify(identity_measure(SPACE), momentum_pair(1, 7))
    assert verdict.tag is VerdictTag.NON_ORTHOGONAL_EVENTS


def test_classify_on_window_projectors_builds_no_dense_entries():
    # the exclusivity test runs on range bases: O(n r_A r_B), no n x n array
    for x_a, x_b, width in [(2, 5, 1), (2, 2, 1), (2, 3, 3), (0, 4, 4)]:
        measure = SelectiveMeasure(
            window_projector(x_a, width, SPACE), window_projector(x_b, width, SPACE)
        )
        verdict = classify(measure, momentum_pair(1, 7))
        overlapping = set(window_sites(x_a, width, 8)) & set(window_sites(x_b, width, 8))
        assert (verdict.tag is VerdictTag.NON_ORTHOGONAL_EVENTS) is bool(overlapping)
        assert measure.factor_slot1._entries is None
        assert measure.factor_slot2._entries is None


def test_classify_zero_operator_is_both_zero():
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    verdict = classify(SelectiveMeasure(zero, zero), momentum_pair(1, 7))
    assert verdict.tag is VerdictTag.BOTH_ZERO


def test_classify_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        classify(momentum_projector(1, 7, SPACE), momentum_pair(1, 7), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_classify_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        classify(momentum_projector(1, 7, SPACE), momentum_pair(1, 7), tol=tol)


def test_classify_is_scale_and_phase_invariant():
    rng = np.random.default_rng(33)
    space = SpaceSpec(4, 2)
    base_state = random_state(rng, space)
    for measure in (
        momentum_projector(1, 3, space),
        random_measure(rng, space, 3, 2),
        SelectiveMeasure(window_projector(0, 1, space), window_projector(2, 1, space)),
    ):
        reference = classify(measure, base_state).tag
        scaled_measure = SelectiveMeasure(
            OneParticleOperator(space, 37.0 * measure.factor_slot1.entries),
            OneParticleOperator(space, 0.004 * measure.factor_slot2.entries),
        )
        scaled_state = TwoParticleState(
            space, 250.0 * np.exp(1.2j) * base_state.amplitudes
        )
        assert classify(scaled_measure, scaled_state).tag is reference
    # one dense factor whose entries' squares under- or overflow: its column
    # norms are formed on rows rescaled exactly, so the factor scale keeps its size
    ref = as_dense(momentum_pair(1, 7))
    for measure, reference in (
        (momentum_projector(1, 7, SPACE), VerdictTag.LOCAL_OPERATION),
        (SelectiveMeasure(window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)),
         VerdictTag.ENTANGLING_MEASUREMENT),
    ):
        assert classify(measure, ref).tag is reference
        factors = (measure.factor_slot1, measure.factor_slot2)
        for factor_scales in ((1e-165, 1.0), (1e-170, 1.0), (1.0, 1e-170), (1e155, 1.0)):
            scaled_measure = SelectiveMeasure(*(
                OneParticleOperator(SPACE, scale * factor.entries)
                for scale, factor in zip(factor_scales, factors)
            ))
            for state_scale in (1.0, 1e100, 1e150):
                scaled_state = TwoParticleState(SPACE, state_scale * ref.amplitudes)
                assert classify(scaled_measure, scaled_state).tag is reference, factor_scales


def test_classify_agrees_with_brute_force_on_random_projectors():
    rng = np.random.default_rng(34)
    space = SpaceSpec(4, 2)
    for _ in range(20):
        measure = random_measure(rng, space, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        state = random_state(rng, space)
        expected = brute_force_verdict(measure, state, 1e-10)
        assert classify(measure, state).tag is expected


def test_classify_brute_force_agreement_covers_structured_cases():
    cases = [
        (momentum_projector(1, 7, SPACE), momentum_pair(1, 7)),
        (
            SelectiveMeasure(window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)),
            momentum_pair(1, 7),
        ),
        (
            SelectiveMeasure(window_projector(3, 1, SPACE), window_projector(3, 1, SPACE)),
            momentum_pair(1, 7, spin_a=UP, spin_b=UP),
        ),
        (SelectiveMeasure(*[window_projector(3, 3, SPACE)] * 2), momentum_pair(1, 7)),
        (
            SelectiveMeasure(
                OneParticleOperator(SPACE, np.zeros((16, 16))),
                OneParticleOperator(SPACE, np.zeros((16, 16))),
            ),
            momentum_pair(1, 7),
        ),
    ]
    for measure, state in cases:
        assert classify(measure, state).tag is brute_force_verdict(measure, state, 1e-10)


def test_collapse_momentum_scenario_probability_and_state():
    result = measure_pair(
        momentum_projector(1, 7, SPACE), momentum_pair(1, 7), Statistics.FERMION
    )
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    expected = momentum_pair(1, 7).amplitudes / np.sqrt(2)
    assert np.max(np.abs(result.post_state.amplitudes - expected)) < 1e-12
    assert result.post_state_normalized is not None
    assert result.post_state_normalized.norm == pytest.approx(1.0, abs=1e-14)


def test_collapse_returns_the_result_of_measure_pair():
    rng = np.random.default_rng(36)
    space = SpaceSpec(4, 2)
    window = SelectiveMeasure(window_projector(2, 1, SPACE), window_projector(5, 1, SPACE))
    cases = [
        (momentum_projector(1, 7, SPACE), momentum_pair(1, 7)),
        (window, momentum_pair(1, 7)),
        (random_measure(rng, space, 2, 3), random_state(rng, space)),
    ]
    for measure, state in cases:
        for stat in Statistics:
            assert result_bits(collapse(measure, state, stat, 1e-12)) == result_bits(
                measure_pair(measure, state, stat, 1e-12)
            )


def test_collapse_single_site_window_probability():
    measure = SelectiveMeasure(
        window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
    )
    for stat in Statistics:
        result = measure_pair(measure, momentum_pair(1, 7), stat)
        assert result.probability == pytest.approx(1 / 64, abs=1e-12)


def test_collapse_impossible_outcome():
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    result = measure_pair(SelectiveMeasure(zero, zero), momentum_pair(1, 7), Statistics.FERMION)
    assert result.probability == 0.0
    assert result.post_state_normalized is None


def test_an_exactly_zero_post_state_is_impossible_at_every_factor_scale():
    # At k = 1e-170 measure_scale underflows to 0 and the sector norm overflows,
    # so the post-state's zero test meets a scale of 0 * inf = nan
    space = SpaceSpec(2, 1)
    ref = TwoParticleState(space, np.array([[0, 1.2e308], [-1.2e308, 0]]).reshape(-1))
    for k in (1.0, 1e-100, 1e-160, 1e-170):
        factor = OneParticleOperator(space, k * np.diag([1.0, 0.0]))
        result = measure_pair(SelectiveMeasure(factor, factor), ref, Statistics.FERMION)
        assert result.verdict.tag is VerdictTag.BOTH_ZERO, k
        assert result.probability == 0.0 and result.post_state.norm == 0.0
        assert result.post_state_normalized is None and result.report is None


def test_collapse_requires_a_nonzero_sector():
    space = SpaceSpec(4, 2)
    doubled = tensor_state(plane_wave(0, UP, space), plane_wave(0, UP, space))
    with pytest.raises(DegenerateInputError):
        measure_pair(identity_measure(space), doubled, Statistics.FERMION)


def test_collapse_probability_matches_expectation_value_for_projectors():
    # Born rule: ||M psi_sym||^2 equals <psi_sym|M|psi_sym> when M projects
    rng = np.random.default_rng(35)
    space = SpaceSpec(4, 2)
    for _ in range(10):
        measure = random_measure(rng, space, 3, 3)
        state = random_state(rng, space)
        for stat in Statistics:
            sym = sector(state, stat)
            result = measure_pair(measure, state, stat)
            full = np.kron(measure.factor_slot1.entries, measure.factor_slot2.entries)
            expectation = np.vdot(sym.amplitudes, full @ sym.amplitudes)
            assert abs(expectation.imag) < 1e-12
            assert result.probability == pytest.approx(expectation.real, abs=1e-12)


def test_a_window_above_the_budget_is_refused_before_its_labels_are_built(monkeypatch):
    # 10^5 sites at spin 1/2 are 2 * 10^5 labels: a few MiB of Python lists
    monkeypatch.setattr("pairmeasure.hilbert.MAX_PAIR_BYTES", 2**16)
    space = SpaceSpec(10**6, 2)
    calls = [
        lambda: window_projector(0, 10**5, space),
        lambda: scenario_position_windows(space, 1, None, 0, 500_000, 10**5, Statistics.FERMION),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(InputTooLargeError, match="^a window's label list needs 3200000 "):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


def test_window_projector_full_width_is_identity():
    proj = window_projector(3, 8, SPACE)
    assert np.array_equal(proj.entries, np.eye(16))
    capped = window_projector(3, 17, SPACE)
    assert np.array_equal(capped.entries, np.eye(16))


def test_window_projector_single_site():
    proj = window_projector(2, 1, SPACE)
    assert np.trace(proj.entries).real == pytest.approx(2.0)
    for spin in (UP, DOWN):
        idx = mode_index(2, spin, SPACE)
        assert proj.entries[idx, idx] == 1.0


def test_window_projector_is_idempotent_and_hermitian():
    proj = window_projector(6, 3, SPACE).entries
    assert np.max(np.abs(proj @ proj - proj)) < 1e-14
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-14


def test_window_sites_wrap_and_reject_bad_input():
    assert window_sites(0, 3, 8) == [0, 1, 7]
    assert window_sites(7, 3, 8) == [0, 6, 7]
    with pytest.raises(ValueError):
        window_sites(0, 0, 8)
    with pytest.raises(IndexError):
        window_sites(8, 1, 8)


def test_measures_refuse_operands_from_another_space():
    small, large = SpaceSpec(3, 2), SpaceSpec(4, 2)
    with pytest.raises(DimensionMismatchError):
        SelectiveMeasure(
            identity_operator(small), identity_operator(large)
        )
    with pytest.raises(DimensionMismatchError):
        apply_measure(identity_measure(large), momentum_pair(1, 2, small))


def test_momentum_projector_fixes_matching_product():
    measure = momentum_projector(1, 7, SPACE)
    state = momentum_pair(1, 7)
    out = apply_measure(measure, state)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_momentum_projector_annihilates_swapped_product():
    measure = momentum_projector(1, 7, SPACE)
    swapped = permute(momentum_pair(1, 7))
    assert apply_measure(measure, swapped).norm < 1e-14


def test_momentum_projector_factors_are_projectors():
    measure = momentum_projector(2, 5, SPACE)
    for factor in (measure.factor_slot1, measure.factor_slot2):
        entries = factor.entries
        assert np.max(np.abs(entries @ entries - entries)) < 1e-14
        assert np.max(np.abs(entries - entries.conj().T)) < 1e-14
    assert is_projector_valued(measure)


def test_is_projector_valued_rejects_general_operators():
    rng = np.random.default_rng(36)
    entries = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    general = OneParticleOperator(SPACE, entries)
    assert not is_projector_valued(SelectiveMeasure(general, general))


def test_measure_does_not_commute_with_permutation():
    # the commutator, applied to the swapped momentum product, has norm 1
    measure = momentum_projector(1, 7, SPACE)
    swapped = permute(momentum_pair(1, 7))
    left = apply_measure(measure, permute(swapped))
    right = permute(apply_measure(measure, swapped))
    assert np.linalg.norm(left.amplitudes - right.amplitudes) > 0.1


def test_swapping_factors_swaps_event_norms():
    rng = np.random.default_rng(37)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    for _ in range(10):
        measure = random_measure(rng, space, 2, 3)
        coeff = np.triu(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), k=1
        )
        state = TwoParticleState(space, (coeff / np.linalg.norm(coeff)).reshape(-1))
        pair = events(measure, state)
        swapped = SelectiveMeasure(measure.factor_slot2, measure.factor_slot1)
        swapped_pair = events(swapped, state)
        assert swapped_pair.norm_direct == pytest.approx(pair.norm_permuted, abs=1e-12)
        assert swapped_pair.norm_permuted == pytest.approx(pair.norm_direct, abs=1e-12)


def test_event_and_ref_overlap_coincide_for_projector_measures():
    rng = np.random.default_rng(39)
    space = SpaceSpec(4, 2)
    for _ in range(10):
        measure = random_measure(rng, space, 3, 2)
        pair = events(measure, random_state(rng, space))
        assert pair.event_overlap == pytest.approx(pair.ref_overlap, abs=1e-12)


def test_ref_overlap_is_the_event_overlap_for_projectors_built_from_their_bases():
    # <ref|U_A K_p U_B^T> is vdot(direct core, K_p), the event overlap's own
    # sum, only when both factors have rows U^H; a factor given with entries
    # keeps the inner product with the reference
    rng = np.random.default_rng(41)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    for rank1, rank2 in [(1, 1), (2, 3), (3, 2), (dim, 4)]:
        bases = [random_unitary(rng, dim)[:, :rank] for rank in (rank1, rank2)]
        built = [OneParticleOperator(space, None, range_basis=basis) for basis in bases]
        given = [
            OneParticleOperator(space, basis @ basis.conj().T, range_basis=basis)
            for basis in bases
        ]
        for state in (random_state(rng, space), random_factored_state(rng, space, 2, 3)):
            pair = events(SelectiveMeasure(*built), state)
            assert pair.ref_overlap == pair.event_overlap
            assert pair.ref_overlap == pytest.approx(
                inner_product(state, pair.event_permuted), abs=1e-13
            )
            for measure in (
                SelectiveMeasure(given[0], built[1]),
                SelectiveMeasure(built[0], given[1]),
                SelectiveMeasure(*given),
            ):
                pair = events(measure, state)
                assert pair.ref_overlap == inner_product(state, pair.event_permuted)
                assert pair.ref_overlap == pytest.approx(pair.event_overlap, abs=1e-13)


def test_event_and_ref_overlap_differ_for_general_measures():
    rng = np.random.default_rng(40)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    general = SelectiveMeasure(
        OneParticleOperator(space, rng.standard_normal((dim, dim)) * 2.0),
        OneParticleOperator(space, rng.standard_normal((dim, dim))),
    )
    pair = events(general, random_state(rng, space))
    assert abs(pair.event_overlap - pair.ref_overlap) > 1e-3


def test_measure_scale_is_multiplicative():
    rng = np.random.default_rng(38)
    space = SpaceSpec(3, 2)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    measure = SelectiveMeasure(
        OneParticleOperator(space, a), OneParticleOperator(space, b)
    )
    full = np.kron(a, b)
    assert measure_scale(measure) == pytest.approx(
        float(np.max(np.linalg.norm(full, axis=0))), rel=1e-12
    )


def test_collapse_by_linearity_matches_measure_on_sector():
    # reference: the measure applied to the symmetrized state itself
    rng = np.random.default_rng(36)
    space = SpaceSpec(3, 2)
    dim = space.total_dim
    for _ in range(10):
        general = SelectiveMeasure(*(
            OneParticleOperator(
                space, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )
            for _ in range(2)
        ))
        for measure in (general, random_measure(rng, space, 2, 4)):
            state = random_state(rng, space)
            for stat in Statistics:
                expected = apply_measure(measure, sector(state, stat)).amplitudes
                raw = measure_pair(measure, state, stat).post_state.amplitudes
                assert np.linalg.norm(raw - expected) <= 1e-12 * np.linalg.norm(expected)


def without_basis(measure):
    """The same factors as plain dense operators (U = I)."""
    factors = (measure.factor_slot1, measure.factor_slot2)
    return SelectiveMeasure(*(OneParticleOperator(f.space, f.entries) for f in factors))


def assert_compressed_matches_dense(measure, state, stat):
    dense = without_basis(measure)
    assert classify(measure, state).tag is brute_force_verdict(dense, state, 1e-10)
    assert_results_match(measure_pair(measure, state, stat), measure_pair(dense, state, stat))


def assert_results_match(got, want):
    assert got.verdict.tag is want.verdict.tag
    assert got.born_rule is want.born_rule
    assert got.probability == pytest.approx(want.probability, abs=1e-12)
    assert got.scale == pytest.approx(want.scale, rel=1e-12)
    assert np.max(np.abs(got.post_state.amplitudes - want.post_state.amplitudes)) < 1e-12
    assert (got.report is None) is (want.report is None)
    if want.report is not None:
        assert_spectra_match(got.report.singular_values, want.report.singular_values)
        assert got.report.entropy == pytest.approx(want.report.entropy, abs=1e-12)
        assert got.report.schmidt_rank == want.report.schmidt_rank
        assert got.report.slater_rank == want.report.slater_rank
        assert got.evidence == want.evidence


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    stat=st.sampled_from(Statistics),
)
def test_range_compressed_projectors_match_dense_and_brute_force(seed, sites, fractions, stat):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    factors = []
    for fraction in fractions:
        basis = random_unitary(rng, dim)[:, : round(fraction * dim)]
        factors.append(OneParticleOperator(space, basis @ basis.conj().T, range_basis=basis))
    measure = SelectiveMeasure(*factors)
    assert is_projector_valued(measure)
    assert_compressed_matches_dense(measure, random_state(rng, space), stat)


@settings(max_examples=60, deadline=None)
@given(
    sites=st.integers(4, 9),
    labels=st.tuples(*(st.integers(0, 8) for _ in range(4))),
    width=st.sampled_from([1, 3]),
    stat=st.sampled_from(Statistics),
)
def test_range_compressed_windows_and_momenta_match_dense(sites, labels, width, stat):
    space = SpaceSpec(sites, 2)
    m_a, m_b, x_a, x_b = (label % sites for label in labels)
    if m_a == m_b:
        m_b = (m_a + 1) % sites
    ref = momentum_pair(m_a, m_b, space)
    windows = SelectiveMeasure(
        window_projector(x_a, width, space), window_projector(x_b, width, space)
    )
    for measure in (windows, momentum_projector(m_a, m_b, space),
                    momentum_projector(x_a, x_b, space)):
        assert_compressed_matches_dense(measure, ref, stat)


def test_built_projectors_carry_their_range_basis():
    momentum = momentum_projector(3, 5, SPACE)
    cases = [
        (window_projector(2, 1, SPACE), 2),
        (window_projector(7, 3, SPACE), 6),
        (window_projector(0, 9, SPACE), 16),
        (momentum.factor_slot1, 2),
        (momentum.factor_slot2, 2),
    ]
    for factor, rank in cases:
        basis = factor.range_basis
        assert basis.shape == (16, rank)
        assert np.max(np.abs(basis @ basis.conj().T - factor.entries)) < 1e-15


def test_is_projector_valued_with_a_basis_agrees_with_the_entrywise_test():
    # a basis spanning the range changes the cost of the test, not its answer,
    # also for near-projectors whose entrywise residual sits around tol
    rng = np.random.default_rng(41)
    space = SpaceSpec(3, 2)
    basis = random_unitary(rng, 6)[:, :3]
    core = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    inners = [core, core + core.conj().T, np.eye(3)]
    inners += [np.diag([1.0, 1.0 + delta, 0.0]) for delta in np.geomspace(1e-11, 1e-9, 9)]
    answers = []
    for inner in inners:
        entries = basis @ inner @ basis.conj().T
        plain = OneParticleOperator(space, entries)
        with_basis = OneParticleOperator(space, entries, range_basis=basis)
        answer = is_projector_valued(SelectiveMeasure(plain, plain))
        assert is_projector_valued(SelectiveMeasure(with_basis, with_basis)) is answer
        answers.append(answer)
    assert answers[:3] == [False, False, True] and True in answers[3:] and False in answers[3:]


def projector_error(factor):
    """Largest entry of A - A^H and of A A - A, on the dense entries."""
    entries = factor.entries
    return max(
        np.max(np.abs(entries - entries.conj().T)),
        np.max(np.abs(entries @ entries - entries)),
    )


@pytest.mark.parametrize("sites", [2, 5, 8, 33, 128])
def test_built_projectors_decide_the_born_flag_as_their_entries_do(sites):
    # window and momentum projectors are built from their bases alone, so the
    # flag comes from the Gram matrix of their construction; it must give the
    # dense entrywise answer. Below tol ~ 1e-16 the two can part: the entries
    # carry their own rounding, which the bound on U U^H does not see.
    space = SpaceSpec(sites, 2)
    measures = [
        SelectiveMeasure(window_projector(center, width, space),
                         window_projector(center, width, space))
        for width in (1, 2, 3, sites)
        for center in (0, sites - 1)
    ]
    measures += [
        momentum_projector(mode1, mode2, space)
        for mode1, mode2 in [(0, 1), (1, sites - 1), (sites // 2, sites // 3)]
    ]
    for measure in measures:
        error = max(map(projector_error, (measure.factor_slot1, measure.factor_slot2)))
        for tol in np.geomspace(1e-15, 1e-6, 20):
            assert is_projector_valued(measure, tol) is bool(error < tol), (measure, tol)


def test_the_born_flag_of_a_near_orthonormal_basis_is_never_too_lenient():
    # a basis that passes the orthonormality check only to ZERO_TOL spans a
    # near-projector U U^H; the Gram-derived bound must not pass it where its
    # entries fail
    rng = np.random.default_rng(43)
    space = SpaceSpec(4, 2)
    unitary = random_unitary(rng, 8)[:, :3]
    noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    answers = set()
    for delta in np.geomspace(1e-14, 1e-11, 7):
        factor = OneParticleOperator(
            space, None, range_basis=unitary @ (np.eye(3) + delta * noise)
        )
        error = projector_error(factor)
        for tol in np.geomspace(1e-16, 1e-9, 29):
            flag = is_projector_valued(SelectiveMeasure(factor, factor), tol)
            assert not flag or error < tol, (delta, tol)
            answers.add(flag)
    assert answers == {True, False}


def test_the_born_flag_of_a_dense_caller_basis_builds_no_dense_operator():
    # a near-projector U U^H on a dense basis at L = 4096 is tested on 3 x n
    # arrays; its n x n entries would take 1 GiB, above the memory budget
    rng = np.random.default_rng(45)
    space = SpaceSpec(4096, 2)
    dim = space.total_dim
    unitary = np.linalg.qr(rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)))[0]
    noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    factor = OneParticleOperator(space, None, range_basis=unitary @ (np.eye(3) + 1e-11 * noise))
    measure = SelectiveMeasure(factor, factor)
    for tol, flag in [(1e-10, True), (1e-12, False)]:
        tracemalloc.start()
        try:
            assert is_projector_valued(measure, tol) is flag
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_every_form_of_a_factor_gets_one_born_flag():
    # one rule for a factor without a basis, with entries and a basis, and
    # from its basis alone. A = U M U^H with M = I + delta P, P Hermitian or
    # skew-Hermitian of unit norm, has errors delta or 2 delta, placed
    # between the tols of the grid. M = I is also given as the basis alone,
    # on a basis of entries 0 and +-1/2 whose products are exact, so every
    # form has errors exactly 0; on a random basis its errors are rounding,
    # up to about 1.4e-15, and the forms can part at tol 1e-15
    rng = np.random.default_rng(46)
    space = SpaceSpec(4, 2)
    signs = np.array([[1, 1], [1, -1], [1, 1], [1, -1]])
    exact = np.zeros((8, 3))
    exact[:4, :2], exact[4:, 2] = 0.5 * signs, 0.5
    gauss = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    directions = [(gauss + gauss.conj().T, 1.0), (gauss - gauss.conj().T, 2.0)]
    tols = np.geomspace(1e-15, 1e-6, 20)
    between = np.sqrt(tols[1:] * tols[:-1])
    inners = [np.eye(3) + error / size * direction / np.linalg.norm(direction)
              for direction, size in directions for error in between[1::3]]
    bases = (random_unitary(rng, 8)[:, :3], exact)
    cases = [(basis, inner) for basis in bases for inner in inners]
    for basis, inner in cases + [(exact, np.eye(3))]:
        entries = basis @ inner @ basis.conj().T
        forms = [OneParticleOperator(space, entries),
                 OneParticleOperator(space, entries, range_basis=basis)]
        projector = not np.any(inner != np.eye(3))
        if projector:
            forms.append(OneParticleOperator(space, None, range_basis=basis))
        flags = [[is_projector_valued(SelectiveMeasure(form, form), tol) for tol in tols]
                 for form in forms]
        assert all(row == flags[0] for row in flags), inner
        assert all(flags[0]) if projector else True in flags[0] and False in flags[0]


def _column_scale(factor):
    """A factor's largest column norm, from its range rows."""
    return float((np.abs(factor.range_rows) ** 2).sum(axis=0).max()) ** 0.5


def test_factors_with_entries_size_and_flag_themselves_from_their_arrays():
    # a caller basis with entries sizes and flags the factor from its range
    # rows, not from the projector U U^H its basis spans
    rng = np.random.default_rng(44)
    space = SpaceSpec(3, 2)
    basis = random_unitary(rng, 6)[:, :2]
    projector = basis @ basis.conj().T
    scaled = OneParticleOperator(space, 2.0 * projector, range_basis=basis)
    assert _column_scale(scaled) > 1.0
    dense = OneParticleOperator(space, 2.0 * projector)
    for factor in (scaled, dense):
        measure, scale = SelectiveMeasure(factor, factor), _column_scale(factor)
        assert measure_scale(measure) == scale * scale
        assert is_projector_valued(measure) is False
    for factor in (OneParticleOperator(space, projector, range_basis=basis),
                   OneParticleOperator(space, projector)):
        assert is_projector_valued(SelectiveMeasure(factor, factor)) is True


@pytest.mark.parametrize("k, flag", [(1e-9, False), (1e-11, False), (1e-200, False),
                                     (1.0, True), (1.0 + 1e-12, True), (0.0, True)])
def test_a_factor_smaller_than_a_projector_is_tested_at_its_own_size(k, flag):
    # k P for a projector P has errors of about k, below an absolute tol for
    # a small k; a nonzero projector has ||W||_F >= 1, so the errors are
    # compared with tol * min(1, ||W||_F)
    space = SpaceSpec(8, 2)
    window = window_projector(2, 1, space)
    ref = tensor_state(plane_wave(1, 0, space), plane_wave(7, 1, space))
    for factor in (OneParticleOperator(space, k * window.entries),
                   OneParticleOperator(space, k * window.entries, range_basis=window.range_basis)):
        measure = SelectiveMeasure(factor, window_projector(5, 1, space))
        assert is_projector_valued(measure) is flag
        assert measure_pair(measure, ref, Statistics.FERMION).born_rule is flag


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    basis_only=st.tuples(st.booleans(), st.booleans()),
    factored=st.booleans(),
    stat=st.sampled_from(Statistics),
)
def test_factored_states_match_dense_states(
    seed, sites, fractions, ranks, basis_only, factored, stat
):
    # the factored path on either kind of state against plain dense algebra;
    # a basis on one factor only gives one-sided events and post-states
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    factors = []
    for fraction, only in zip(fractions, basis_only):
        basis = random_unitary(rng, dim)[:, : round(fraction * dim)]
        if only:
            factors.append(OneParticleOperator(space, None, range_basis=basis))
        else:
            factors.append(OneParticleOperator(space, basis @ basis.conj().T))
    measure = SelectiveMeasure(*factors)
    state = random_factored_state(rng, space, *(min(rank, dim) for rank in ranks))
    if not factored:
        state = as_dense(state)
    dense_measure, dense_state = without_basis(measure), as_dense(state)
    assert is_projector_valued(measure)
    expected = brute_force_verdict(dense_measure, dense_state, 1e-10)
    assert classify(measure, state).tag is expected
    assert_results_match(
        measure_pair(measure, state, stat), measure_pair(dense_measure, dense_state, stat)
    )


def _factor_of_kind(rng, space, kind, rank):
    """A factor built from its basis alone, given with entries and a basis, or dense."""
    dim = space.total_dim
    basis = random_unitary(rng, dim)[:, :rank]
    if kind == "basis":
        return OneParticleOperator(space, None, range_basis=basis)
    if kind == "entries and basis":
        return OneParticleOperator(space, basis @ basis.conj().T, range_basis=basis)
    if kind == "dense projector":
        return OneParticleOperator(space, basis @ basis.conj().T)
    return OneParticleOperator(
        space, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 3),
    kinds=st.tuples(*(st.sampled_from(
        ["basis", "entries and basis", "dense projector", "dense"]) for _ in "AB")),
    ranks=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    state_ranks=st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(1, 6))),
    stat=st.sampled_from(Statistics),
    tol_exponent=st.floats(-14, -1),
)
def test_measure_pair_reports_what_schmidt_and_the_direct_rank_give(
    seed, sites, kinds, ranks, state_ranks, stat, tol_exponent
):
    # one SVD call gives both spectra: the report is schmidt's and the
    # evidence's before-rank that of the direct event's own SVD, bit for bit
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    measure = SelectiveMeasure(*(
        _factor_of_kind(rng, space, kind, min(rank, dim)) for kind, rank in zip(kinds, ranks)
    ))
    if state_ranks is None:
        state = random_state(rng, space)
    else:
        state = random_factored_state(rng, space, *(min(rank, dim) for rank in state_ranks))
    tol = 10.0**tol_exponent
    try:
        result = measure_pair(measure, state, stat, tol)
    except DegenerateInputError:
        assume(False)
    direct = result.event_pair.event_direct
    if result.report is None:
        assert result.evidence is None
        return
    assert result_bits(result.report) == result_bits(schmidt(result.post_state, tol))
    if _negligible(result.event_pair.norm_direct, result.scale, tol):
        assert result.evidence is None
        return
    before = _rank(np.linalg.svd(direct.core, compute_uv=False), tol)
    after = result.report.schmidt_rank
    assert result_bits(result.evidence) == result_bits(EbmEvidence(before, after, after > before))


def test_factored_doubly_occupied_reference_has_no_fermion_sector():
    rng = np.random.default_rng(42)
    space = SpaceSpec(4, 2)
    u = random_vector(rng, space).amplitudes
    unit = (u / np.linalg.norm(u))[:, None]
    doubled = TwoParticleState.from_factors(space, unit, [[np.vdot(u, u)]], unit)
    measure = SelectiveMeasure(window_projector(1, 1, space), window_projector(2, 1, space))
    with pytest.raises(DegenerateInputError):
        measure_pair(measure, doubled, Statistics.FERMION)
    assert_results_match(
        measure_pair(measure, doubled, Statistics.BOSON),
        measure_pair(without_basis(measure), as_dense(doubled), Statistics.BOSON),
    )


def transformed(measure, state, state_factor, factor_scales, rotation):
    """c (V x V) state and V (s A) V^H per factor, keeping factored and basis forms."""
    factors = []
    for factor, scale in zip((measure.factor_slot1, measure.factor_slot2), factor_scales):
        entries = scale * rotation @ factor.entries @ rotation.conj().T
        basis = None if factor.range_basis is None else rotation @ factor.range_basis
        factors.append(OneParticleOperator(state.space, entries, range_basis=basis))
    if state.left is None:
        coeff = state_factor * rotation @ state.matrix() @ rotation.T
        new_state = TwoParticleState(state.space, coeff.reshape(-1))
    else:
        new_state = TwoParticleState.from_factors(
            state.space, rotation @ state.left, state_factor * state.core,
            rotation @ state.right,
        )
    return SelectiveMeasure(*factors), new_state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["projectors", "windows", "momenta"]),
    factored=st.booleans(),
)
def test_verdicts_are_invariant_under_rescaling_phase_and_shared_local_unitaries(
    seed, kind, factored
):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    m_a, m_b = (int(m) for m in rng.choice(4, size=2, replace=False))
    x_a, x_b = (int(x) for x in rng.integers(0, 4, size=2))
    ref = random_factored_state(rng, space, 2, 2)
    if kind == "projectors":
        bases = (random_unitary(rng, dim)[:, : rng.integers(0, dim + 1)] for _ in range(2))
        measure = SelectiveMeasure(
            *(OneParticleOperator(space, None, range_basis=basis) for basis in bases)
        )
    else:
        ref = TwoParticleState.from_factors(
            space, plane_wave(m_a, UP, space).amplitudes[:, None], [[1.0]],
            plane_wave(m_b, DOWN, space).amplitudes[:, None],
        )
        if kind == "windows":
            measure = SelectiveMeasure(
                window_projector(x_a, 1, space), window_projector(x_b, 1, space)
            )
        else:
            measure = momentum_projector(m_a, m_b, space)
    if not factored:
        ref = as_dense(ref)
    scales = 10.0 ** rng.uniform(-3, 3, size=3)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    identity = np.eye(dim)
    variants = [
        transformed(measure, ref, scales[0], scales[1:], identity),
        transformed(measure, ref, phase, (1.0, 1.0), identity),
        transformed(measure, ref, 1.0, (1.0, 1.0), random_unitary(rng, dim)),
    ]
    cases = [(measure, ref)] + variants
    # skip draws whose decision values sit within 1e3 of a threshold
    for case in cases:
        margins = decision_margins(*case, 1e-10)
        assume(not np.any((margins > 1e-3) & (margins < 1e3)))
    verdict = classify(measure, ref).tag
    for case in cases:
        assert classify(*case).tag is verdict
        assert brute_force_verdict(*case, 1e-10) is verdict


def _tol_takers():
    """Every public function that takes ``tol``, as a call on ``tol`` alone."""
    rng = np.random.default_rng(31)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    state = random_state(rng, space)
    general = SelectiveMeasure(
        *(OneParticleOperator(space, rng.standard_normal((dim, dim))) for _ in "AB")
    )
    fermion = Statistics.FERMION
    return {
        "classify": lambda tol: classify(general, state, tol),
        "measure_pair": lambda tol: measure_pair(general, state, fermion, tol),
        "collapse": lambda tol: collapse(general, state, fermion, tol),
        "is_projector_valued": lambda tol: is_projector_valued(general, tol),
        "schmidt": lambda tol: schmidt(state, tol),
        "scenario_momentum_projection": lambda tol: scenario_momentum_projection(
            space, 1, 3, fermion, tol
        ),
        "scenario_position_windows": lambda tol: scenario_position_windows(
            space, 1, None, 0, 2, 1, fermion, tol
        ),
    }


TOL_TAKERS = _tol_takers()


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_every_public_tol_must_be_finite_and_positive(name, tol):
    # a non-finite or non-positive tol would silently pass or fail every zero test
    with pytest.raises(ValueError, match="finite and positive"):
        TOL_TAKERS[name](tol)


@pytest.mark.parametrize("tol", [1.0, 5.0])
@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_every_public_tol_must_be_below_1(name, tol):
    # from 1 up a value is negligible against a scale it reaches: at tol 5 the
    # momentum scenario called its reference's fermion sector missing
    with pytest.raises(ValueError, match="finite and positive and below 1, got"):
        TOL_TAKERS[name](tol)


@settings(max_examples=60, deadline=None)
@given(
    sites=st.integers(2, 12),
    labels=st.tuples(*(st.integers(0, 11) for _ in range(4))),
    width=st.integers(1, 3),
    stat=st.sampled_from(Statistics),
)
def test_scenarios_give_the_same_bits_from_an_empty_and_a_warm_table(
    sites, labels, width, stat
):
    # no table of bases is left: each call builds its own, so a call gives
    # the same bits as the same call before it
    space = SpaceSpec(sites, 2)
    m_a, m_b, x_a, x_b = (label % sites for label in labels)
    calls = [
        lambda: scenario_position_windows(space, m_a, None, x_a, x_b, width, stat),
        lambda: scenario_position_windows(space, m_a, m_b, x_a, x_b, width, stat),
    ]
    if m_a != m_b:
        calls.append(lambda: scenario_momentum_projection(space, m_a, m_b, stat))
    cold = [result_bits(call()) for call in calls]
    assert [result_bits(call()) for call in calls] == cold


def _unshared(factor):
    """The same projector on a dense, checked copy of its basis."""
    return OneParticleOperator(factor.space, None, range_basis=np.array(factor.range_basis))


def test_equal_labels_share_one_basis_and_measure_as_two_copies_do():
    # equal labels in both slots build two closed-form bases whose change of
    # basis is the exact identity selection; one operator in both slots takes
    # the identity shortcut instead. The numbers stay those of two copies on
    # dense, checked bases.
    space = SpaceSpec(8, 2)
    for stat in Statistics:
        for m_a, m_b in [(1, 1), (1, 7), (3, 5)]:
            ref = momentum_pair(m_a, m_b, space)
            measures = [momentum_projector(m, m, space) for m in (m_a, m_b, m_a + 1)]
            measures += [
                SelectiveMeasure(window_projector(x, width, space),
                                 window_projector(x, width, space))
                for x, width in [(2, 1), (7, 3)]
            ]
            for measure in measures:
                slot1, slot2 = measure.factor_slot1, measure.factor_slot2
                copies = SelectiveMeasure(_unshared(slot1), _unshared(slot2))
                bits = result_bits(measure_pair(measure, ref, stat))
                assert bits == result_bits(measure_pair(copies, ref, stat))
                assert bits == result_bits(measure_pair(SelectiveMeasure(slot1, slot1), ref, stat))
                assert classify(measure, ref).tag is brute_force_verdict(measure, ref, ZERO_TOL)
        # --xa 2 --xb 2: the scenario's measure on its own reference state
        up = plane_wave(1, UP, space).amplitudes[:, None]
        down = plane_wave(7, DOWN, space).amplitudes[:, None]
        ref = TwoParticleState.from_factors(space, up, np.ones((1, 1)), down)
        window = window_projector(2, 1, space)
        expected = measure_pair(SelectiveMeasure(_unshared(window), _unshared(window)), ref, stat)
        result = scenario_position_windows(space, 1, None, 2, 2, 1, stat)
        assert result.verdict.tag is VerdictTag.NON_ORTHOGONAL_EVENTS
        assert result_bits(replace(result, phase_check=None, relabeled=None)) == result_bits(
            expected
        )


def test_labels_must_be_integers_and_errors_do_not_depend_on_the_table():
    space = SpaceSpec(5, 2)
    fermion = Statistics.FERMION
    cases = [
        (lambda: window_projector(2.0, 1, space), TypeError,
         "window center must be an integer, got 2.0"),
        (lambda: window_projector(2, np.float64(1.0), space), TypeError,
         f"window width must be an integer, got {np.float64(1.0)!r}"),
        (lambda: momentum_projector(2.0, 3, space), TypeError,
         "momentum mode must be an integer, got 2.0"),
        (lambda: momentum_projector(2, "3", space), TypeError,
         "momentum mode must be an integer, got '3'"),
        (lambda: scenario_momentum_projection(space, 1.0, 2, fermion), TypeError,
         "m_a must be an integer, got 1.0"),
        (lambda: scenario_momentum_projection(space, 1, 2.5, fermion), TypeError,
         "m_b must be an integer, got 2.5"),
        (lambda: scenario_position_windows(space, 1, 2.0, 0, 1, 1, fermion), TypeError,
         "m_b must be an integer, got 2.0"),
        (lambda: scenario_position_windows(space, 1, None, 0, 1.0, 1, fermion), TypeError,
         "window center must be an integer, got 1.0"),
        (lambda: scenario_position_windows(space, 1, None, 0, 1, 1.0, fermion), TypeError,
         "window width must be an integer, got 1.0"),
        (lambda: momentum_projector(5, 1, space), IndexError,
         "momentum mode 5 out of range [0, 5)"),
        (lambda: momentum_projector(1, -1, space), IndexError,
         "momentum mode -1 out of range [0, 5)"),
        (lambda: scenario_position_windows(space, 5, None, 0, 1, 1, fermion), IndexError,
         "momentum mode 5 out of range [0, 5)"),
        (lambda: window_projector(5, 1, space), IndexError,
         "window center 5 out of range [0, 5)"),
        (lambda: scenario_position_windows(space, 1, None, 0, -1, 1, fermion), IndexError,
         "window center -1 out of range [0, 5)"),
        (lambda: window_projector(0, 0, space), ValueError,
         "window width must be >= 1, got 0"),
        (lambda: scenario_position_windows(space, 1, None, 0, 1, -2, fermion), ValueError,
         "window width must be >= 1, got -2"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    # integers of any integer type name the same labels
    assert np.array_equal(momentum_projector(np.int64(2), 3, space).factor_slot1.range_basis,
                          momentum_projector(2, 3, space).factor_slot1.range_basis)


def test_an_overflow_is_refused_where_it_happens():
    # numpy warns about each overflow on its way; the package refuses it by name
    space = SpaceSpec(4, 2)
    ref = tensor_state(plane_wave(1, 0, space), plane_wave(3, 1, space))
    windows = (window_projector(0, 1, space).entries, window_projector(2, 1, space).entries)

    def scaled(factor, state):
        measure = SelectiveMeasure(*(OneParticleOperator(space, factor * w) for w in windows))
        return measure, TwoParticleState.from_factors(space, ref.left, state * ref.core, ref.right)

    identity = identity_measure(SpaceSpec(1, 1))
    cases = [
        (scaled(1e160, 1.0), "an event overflows"),
        (scaled(1e155, 1e-200), "the scale of the zero tests overflows"),
        ((identity, TwoParticleState(SpaceSpec(1, 1), [1e308])), "the post-state overflows"),
    ]
    for (measure, state), message in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateInputError, match=f"^{message} a double"):
                measure_pair(measure, state, Statistics.BOSON)
            if message != "the post-state overflows":
                with pytest.raises(DegenerateInputError, match=f"^{message} a double"):
                    classify(measure, state)


def test_an_overflow_raises_no_numpy_warning():
    # the suite turns warnings into errors: an overflowing product or sum
    # must end in the named error or in False, not in numpy's RuntimeWarning
    space = SpaceSpec(4, 2)
    ref = tensor_state(plane_wave(1, 0, space), plane_wave(3, 1, space))
    huge = SelectiveMeasure(*(
        OneParticleOperator(space, 1e160 * window_projector(x, 1, space).entries) for x in (0, 2)
    ))
    boson = Statistics.BOSON
    calls = [
        lambda: apply_measure(huge, ref),
        lambda: events(huge, ref),
        lambda: classify(huge, ref),
        lambda: measure_pair(huge, ref, boson),
    ]
    for call in calls:
        with pytest.raises(DegenerateInputError, match="^an event overflows a double"):
            call()
    assert is_projector_valued(huge) is False
    summed = TwoParticleState(SpaceSpec(1, 1), [1e308])  # events 1e308 + 1e308
    with pytest.raises(DegenerateInputError, match="^the post-state overflows a double"):
        measure_pair(identity_measure(SpaceSpec(1, 1)), summed, boson)
