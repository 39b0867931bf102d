import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairmeasure import (
    DegenerateInputError,
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    apply_measure,
    basis_vector,
    measure_pair,
    mode_index,
    momentum_projector,
    plane_wave,
    scenario_momentum_projection,
    schmidt,
    sector,
    tensor_state,
    window_projector,
)

from helpers import (
    as_dense,
    assert_spectra_match,
    identity_measure,
    identity_operator,
    momentum_matrix,
    random_factored_state,
    random_state,
    random_unitary,
    random_vector,
    reduced_density,
)

SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1


def momentum_pair(m_a, m_b, space=SPACE):
    return tensor_state(plane_wave(m_a, UP, space), plane_wave(m_b, DOWN, space))


def singlet(space):
    up_down = tensor_state(basis_vector(0, UP, space), basis_vector(0, DOWN, space))
    return sector(up_down, Statistics.FERMION)


def local_rotation(state, left, right):
    coeff = left @ state.matrix() @ right.T
    return TwoParticleState(state.space, coeff.reshape(-1))


def test_coefficient_matrix_single_entry():
    space = SpaceSpec(2, 1)
    state = tensor_state(basis_vector(0, 0, space), basis_vector(1, 0, space))
    coeff = state.matrix()
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    assert np.array_equal(coeff, expected)


def test_coefficient_matrix_of_fermion_momentum_pair():
    state = sector(momentum_pair(1, 7), Statistics.FERMION)
    momentum_coeff = np.zeros((16, 16), dtype=complex)
    momentum_coeff[mode_index(1, UP, SPACE), mode_index(7, DOWN, SPACE)] = 1 / np.sqrt(2)
    momentum_coeff[mode_index(7, DOWN, SPACE), mode_index(1, UP, SPACE)] = -1 / np.sqrt(2)
    # compare in the momentum basis, where the pair has exactly two amplitudes
    coeff = momentum_matrix(state)
    assert np.max(np.abs(coeff - momentum_coeff)) < 1e-12


def test_coefficient_matrix_roundtrip():
    rng = np.random.default_rng(41)
    state = random_state(rng, SpaceSpec(3, 2))
    rebuilt = TwoParticleState(state.space, state.matrix().reshape(-1))
    assert np.array_equal(rebuilt.amplitudes, state.amplitudes)
    assert np.array_equal(rebuilt.matrix(), state.matrix())


def test_schmidt_product_state_is_rank_one():
    rng = np.random.default_rng(42)
    space = SpaceSpec(4, 2)
    report = schmidt(tensor_state(random_vector(rng, space), random_vector(rng, space)))
    assert report.schmidt_rank == 1
    assert report.entropy == pytest.approx(0.0, abs=1e-12)
    assert report.slater_rank is None


def test_schmidt_singlet_is_maximally_mixed_pair():
    space = SpaceSpec(1, 2)
    report = schmidt(singlet(space))
    inv_sqrt2 = 1 / np.sqrt(2)
    assert report.schmidt_rank == 2
    assert report.singular_values[0] == pytest.approx(inv_sqrt2, abs=1e-12)
    assert report.singular_values[1] == pytest.approx(inv_sqrt2, abs=1e-12)
    assert report.entropy == pytest.approx(np.log(2), abs=1e-12)
    assert report.slater_rank == 1


def test_schmidt_squared_spectrum_sums_to_one():
    rng = np.random.default_rng(43)
    for _ in range(10):
        report = schmidt(random_state(rng, SpaceSpec(3, 2), normalized=False))
        assert np.sum(report.singular_values**2) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_of_window_collapsed_state_ignores_the_phase():
    # the relative phase between the two window amplitudes is a local spin
    # rotation on slot 2; rank and entropy cannot see it
    space = SPACE
    measure_sites = [(2, 5), (1, 4), (0, 6)]
    for x_a, x_b in measure_sites:
        measure = SelectiveMeasure(
            window_projector(x_a, 1, space), window_projector(x_b, 1, space)
        )
        result = measure_pair(measure, momentum_pair(1, 7), Statistics.FERMION)
        report = schmidt(result.post_state_normalized)
        assert report.schmidt_rank == 2
        assert report.entropy == pytest.approx(np.log(2), abs=1e-10)


def test_schmidt_entropy_stays_within_bounds():
    rng = np.random.default_rng(44)
    space = SpaceSpec(3, 2)
    for _ in range(20):
        report = schmidt(random_state(rng, space))
        assert 0.0 <= report.entropy <= np.log(space.total_dim) + 1e-12


def test_schmidt_entropy_is_local_unitary_invariant():
    rng = np.random.default_rng(45)
    space = SpaceSpec(3, 2)
    state = random_state(rng, space)
    base = schmidt(state).entropy
    for _ in range(20):
        left = random_unitary(rng, space.total_dim)
        right = random_unitary(rng, space.total_dim)
        rotated = local_rotation(state, left, right)
        assert schmidt(rotated).entropy == pytest.approx(base, abs=1e-9)


def test_slater_rank_of_single_determinant():
    space = SpaceSpec(4, 2)
    det = sector(
        tensor_state(basis_vector(0, UP, space), basis_vector(1, DOWN, space)),
        Statistics.FERMION,
    )
    assert schmidt(det).slater_rank == 1


def test_slater_rank_of_fermion_momentum_pair():
    state = sector(momentum_pair(1, 7), Statistics.FERMION)
    assert schmidt(state).slater_rank == 1


def test_slater_rank_of_two_disjoint_determinants():
    space = SpaceSpec(4, 2)
    first = sector(
        tensor_state(basis_vector(0, UP, space), basis_vector(1, DOWN, space)),
        Statistics.FERMION,
    )
    second = sector(
        tensor_state(basis_vector(2, UP, space), basis_vector(3, DOWN, space)),
        Statistics.FERMION,
    )
    combo = TwoParticleState(
        space, (first.amplitudes + second.amplitudes) / np.sqrt(2)
    )
    assert schmidt(combo).slater_rank == 2
    assert schmidt(combo).schmidt_rank == 4


def test_slater_rank_rejects_non_antisymmetric_states():
    rng = np.random.default_rng(46)
    assert schmidt(random_state(rng, SpaceSpec(3, 2))).slater_rank is None
    bosons = sector(random_state(rng, SpaceSpec(3, 2)), Statistics.BOSON)
    assert schmidt(bosons).slater_rank is None


def test_schmidt_and_slater_rank_reject_the_zero_state():
    zero = TwoParticleState(SpaceSpec(2, 2), np.zeros(16))
    with pytest.raises(DegenerateInputError, match="zero state"):
        schmidt(zero)


def test_slater_rank_invariant_under_shared_basis_rotation():
    rng = np.random.default_rng(47)
    space = SpaceSpec(3, 2)
    state = sector(random_state(rng, space), Statistics.FERMION)
    base = schmidt(state).slater_rank
    for _ in range(20):
        rotation = random_unitary(rng, space.total_dim)
        rotated = local_rotation(state, rotation, rotation)
        assert schmidt(rotated).slater_rank == base


def test_antisymmetric_states_have_even_schmidt_rank():
    rng = np.random.default_rng(48)
    space = SpaceSpec(3, 2)
    for _ in range(50):
        state = sector(random_state(rng, space), Statistics.FERMION)
        report = schmidt(state)
        assert report.schmidt_rank % 2 == 0
        assert report.slater_rank == report.schmidt_rank // 2


def test_reduced_density_of_singlet_is_maximally_mixed():
    space = SpaceSpec(1, 2)
    for slot in (1, 2):
        rho = reduced_density(singlet(space), slot)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12


def test_reduced_density_of_product_state_is_rank_one_projector():
    rng = np.random.default_rng(49)
    space = SpaceSpec(3, 2)
    u, v = random_vector(rng, space), random_vector(rng, space)
    state = tensor_state(u, v)
    rho = reduced_density(state, 1)
    normalized = u.amplitudes / u.norm
    assert np.max(np.abs(rho - np.outer(normalized, normalized.conj()))) < 1e-12
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_reduced_density_is_a_density_matrix():
    rng = np.random.default_rng(50)
    state = random_state(rng, SpaceSpec(3, 2))
    for slot in (1, 2):
        rho = reduced_density(state, slot)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_reduced_density_entropy_matches_schmidt_entropy():
    # oracle: eigen-decompose the reduced density matrix directly
    rng = np.random.default_rng(51)
    space = SpaceSpec(3, 2)
    for _ in range(10):
        state = random_state(rng, space)
        expected = schmidt(state).entropy
        for slot in (1, 2):
            eigenvalues = np.linalg.eigvalsh(reduced_density(state, slot))
            positive = eigenvalues[eigenvalues > 1e-15]
            entropy = float(-np.sum(positive * np.log(positive)))
            assert entropy == pytest.approx(expected, abs=1e-10)


def test_ebm_evidence_momentum_projection_adds_nothing():
    for stat in Statistics:
        measure = momentum_projector(1, 7, SPACE)
        evidence = measure_pair(measure, momentum_pair(1, 7), stat).evidence
        assert evidence.rank_before == 1
        assert evidence.rank_after == 1
        assert not evidence.entangled_by_measure


def test_ebm_evidence_disjoint_windows_entangle():
    measure = SelectiveMeasure(
        window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
    )
    evidence = measure_pair(measure, momentum_pair(1, 7), Statistics.FERMION).evidence
    assert evidence.rank_before == 1
    assert evidence.rank_after == 2
    assert evidence.entangled_by_measure


def test_ebm_evidence_rejects_dead_events():
    zero = SelectiveMeasure(
        window_projector(0, 1, SpaceSpec(4, 2)), window_projector(0, 1, SpaceSpec(4, 2))
    )
    space = SpaceSpec(4, 2)
    # slot-1 state lives at site 1 only, so the window at site 0 kills it
    state = tensor_state(basis_vector(1, UP, space), basis_vector(2, DOWN, space))
    assert measure_pair(zero, state, Statistics.FERMION).evidence is None


def test_schmidt_entropy_is_never_negative_on_momentum_scenarios():
    # the leading singular value of a product state may round above 1
    for sites in (4, 6, 8, 12, 16, 32):
        space = SpaceSpec(sites, 2)
        for m_a in range(sites):
            for m_b in range(sites):
                if m_a == m_b:
                    continue
                for stat in Statistics:
                    result = scenario_momentum_projection(space, m_a, m_b, stat)
                    assert result.report.entropy >= 0.0, (sites, m_a, m_b, stat)


def test_ebm_evidence_uses_the_relative_zero_test():
    # slot 1 barely sees the reference mode and fully sees the permuted one, so
    # the direct event is far below tol * scale while the outcome stays possible
    space = SpaceSpec(4, 2)
    state = tensor_state(basis_vector(1, UP, space), basis_vector(2, DOWN, space))
    faint = np.eye(space.total_dim) * 1e-14
    faint[mode_index(2, DOWN, space), mode_index(2, DOWN, space)] = 1.0
    measure = SelectiveMeasure(
        OneParticleOperator(space, faint), identity_operator(space)
    )
    assert 0.0 < apply_measure(measure, state).norm < 1e-13
    assert measure_pair(measure, state, Statistics.FERMION).evidence is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    rank=st.integers(1, 4),
    exchange=st.sampled_from([None, -1.0, 1.0]),
)
def test_schmidt_of_factored_states_matches_dense(seed, sites, rank, exchange):
    # exchange -1/+1: L = R and K = -+K^T, an antisymmetric or symmetric state
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    rank = min(max(rank, 2 if exchange == -1.0 else 1), space.total_dim)
    state = random_factored_state(rng, space, rank, rank)
    if exchange is not None:
        core = state.core + exchange * state.core.T
        state = TwoParticleState.from_factors(space, state.left, core, state.left)
    got, want = schmidt(state), schmidt(as_dense(state))
    assert got.schmidt_rank == want.schmidt_rank
    assert got.slater_rank == want.slater_rank
    assert (got.slater_rank is not None) is (exchange == -1.0)
    assert_spectra_match(got.singular_values, want.singular_values)
    assert got.entropy == pytest.approx(want.entropy, abs=1e-12)


def test_tol_reaches_the_rank_and_antisymmetry_tests():
    # product pairs at amplitudes 1 and 1e-6: a spectrum with a 1e-6 gap
    space = SpaceSpec(2, 2)
    coeff = np.zeros((4, 4), dtype=complex)
    coeff[0, 1], coeff[2, 3] = 1.0, 1e-6
    state = TwoParticleState(space, coeff.reshape(-1))
    assert schmidt(state).schmidt_rank == 2
    assert schmidt(state, tol=1e-5).schmidt_rank == 1
    fermions = sector(state, Statistics.FERMION)
    assert schmidt(fermions).slater_rank == 2
    assert schmidt(fermions, tol=1e-5).slater_rank == 1
    identity = identity_measure(space)
    for tol, before, after in ((1e-10, 2, 4), (1e-5, 1, 2)):
        evidence = measure_pair(identity, state, Statistics.FERMION, tol).evidence
        assert (evidence.rank_before, evidence.rank_after) == (before, after), tol
    # a symmetric 1e-9 entry: ||C + C^T|| = 2e-9 ||C||, antisymmetric above that tol
    nearly = fermions.matrix().copy()
    nearly[0, 0] = 1e-9
    nearly = TwoParticleState(space, nearly.reshape(-1))
    assert schmidt(nearly).slater_rank is None
    assert schmidt(nearly, tol=1e-8).slater_rank == 2


def test_ebm_evidence_zero_test_follows_tol():
    # the direct event is 1e-14 of the scale: zero at the default tol, not at 1e-15
    space = SpaceSpec(4, 2)
    state = tensor_state(basis_vector(1, UP, space), basis_vector(2, DOWN, space))
    faint = np.eye(space.total_dim) * 1e-14
    faint[mode_index(2, DOWN, space), mode_index(2, DOWN, space)] = 1.0
    measure = SelectiveMeasure(
        OneParticleOperator(space, faint), identity_operator(space)
    )
    assert measure_pair(measure, state, Statistics.FERMION).evidence is None
    evidence = measure_pair(measure, state, Statistics.FERMION, tol=1e-15).evidence
    assert (evidence.rank_before, evidence.rank_after) == (1, 2)
