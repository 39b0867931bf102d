import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairmeasure import (
    DegenerateInputError,
    DimensionMismatchError,
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
    is_projector_valued,
    measure_pair,
    measure_scale,
    mode_index,
    momentum_projector,
    permute,
    plane_wave,
    relabel_distinguishable,
    scenario_momentum_projection,
    scenario_position_windows,
    schmidt,
    sector,
    slater_rank,
    tensor_state,
    window_projector,
)
from pairmeasure.measurement import window_sites

from helpers import (
    as_dense,
    brute_force_verdict,
    decision_margins,
    identity_measure,
    identity_operator,
    random_factored_state,
    random_measure,
    random_state,
    random_unitary,
    random_vector,
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
    result = collapse(momentum_projector(1, 7, SPACE), momentum_pair(1, 7), Statistics.FERMION)
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    expected = momentum_pair(1, 7).amplitudes / np.sqrt(2)
    assert np.max(np.abs(result.raw.amplitudes - expected)) < 1e-12
    assert result.normalized is not None
    assert result.normalized.norm == pytest.approx(1.0, abs=1e-14)


def test_collapse_single_site_window_probability():
    measure = SelectiveMeasure(
        window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
    )
    for stat in Statistics:
        result = collapse(measure, momentum_pair(1, 7), stat)
        assert result.probability == pytest.approx(1 / 64, abs=1e-12)


def test_collapse_impossible_outcome():
    zero = OneParticleOperator(SPACE, np.zeros((16, 16)))
    result = collapse(SelectiveMeasure(zero, zero), momentum_pair(1, 7), Statistics.FERMION)
    assert result.probability == 0.0
    assert result.normalized is None


def test_collapse_requires_a_nonzero_sector():
    space = SpaceSpec(4, 2)
    doubled = tensor_state(plane_wave(0, UP, space), plane_wave(0, UP, space))
    with pytest.raises(DegenerateInputError):
        collapse(identity_measure(space), doubled, Statistics.FERMION)


def test_collapse_probability_matches_expectation_value_for_projectors():
    # Born rule: ||M psi_sym||^2 equals <psi_sym|M|psi_sym> when M projects
    rng = np.random.default_rng(35)
    space = SpaceSpec(4, 2)
    for _ in range(10):
        measure = random_measure(rng, space, 3, 3)
        state = random_state(rng, space)
        for stat in Statistics:
            sym = sector(state, stat)
            result = collapse(measure, state, stat)
            full = np.kron(measure.factor_slot1.entries, measure.factor_slot2.entries)
            expectation = np.vdot(sym.amplitudes, full @ sym.amplitudes)
            assert abs(expectation.imag) < 1e-12
            assert result.probability == pytest.approx(expectation.real, abs=1e-12)


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
                raw = collapse(measure, state, stat).raw.amplitudes
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
        assert got.report.singular_values.shape == want.report.singular_values.shape
        assert np.max(np.abs(got.report.singular_values - want.report.singular_values)) < 1e-12
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


def test_factored_doubly_occupied_reference_has_no_fermion_sector():
    rng = np.random.default_rng(42)
    space = SpaceSpec(4, 2)
    u = random_vector(rng, space).amplitudes
    unit = (u / np.linalg.norm(u))[:, None]
    doubled = TwoParticleState.from_factors(space, unit, [[np.vdot(u, u)]], unit)
    measure = SelectiveMeasure(window_projector(1, 1, space), window_projector(2, 1, space))
    with pytest.raises(DegenerateInputError):
        measure_pair(measure, doubled, Statistics.FERMION)
    with pytest.raises(DegenerateInputError):
        collapse(measure, doubled, Statistics.FERMION)
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
    product = tensor_state(plane_wave(1, 0, space), plane_wave(3, 1, space))
    fermion = Statistics.FERMION
    return {
        "classify": lambda tol: classify(general, state, tol),
        "measure_pair": lambda tol: measure_pair(general, state, fermion, tol),
        "collapse": lambda tol: collapse(general, state, fermion, tol),
        "is_projector_valued": lambda tol: is_projector_valued(general, tol),
        "schmidt": lambda tol: schmidt(state, tol),
        "slater_rank": lambda tol: slater_rank(sector(state, fermion), tol),
        "relabel_distinguishable": lambda tol: relabel_distinguishable(product, (0, 0), tol),
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
