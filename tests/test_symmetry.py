import numpy as np
import pytest

from pairmeasure import (
    SpaceSpec,
    Statistics,
    basis_vector,
    inner_product,
    mode_index,
    permute,
    plane_wave,
    sector,
    tensor_state,
)

from helpers import orthogonal_sum_residual, random_state

SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1


def momentum_pair(m_a, m_b, space=SPACE):
    return tensor_state(plane_wave(m_a, UP, space), plane_wave(m_b, DOWN, space))


def test_permute_swaps_basis_pair():
    space = SpaceSpec(2, 1)
    state = tensor_state(basis_vector(0, 0, space), basis_vector(1, 0, space))
    swapped = tensor_state(basis_vector(1, 0, space), basis_vector(0, 0, space))
    assert np.array_equal(permute(state).amplitudes, swapped.amplitudes)


def test_permute_swaps_momentum_and_spin_together():
    direct = momentum_pair(1, 7)
    swapped = tensor_state(plane_wave(7, DOWN, SPACE), plane_wave(1, UP, SPACE))
    assert np.max(np.abs(permute(direct).amplitudes - swapped.amplitudes)) < 1e-15


def test_permute_is_an_exact_involution_and_isometry():
    rng = np.random.default_rng(21)
    for _ in range(10):
        state = random_state(rng, SpaceSpec(3, 2))
        twice = permute(permute(state))
        assert np.array_equal(twice.amplitudes, state.amplitudes)
        # exact isometry: the amplitude multiset is untouched by the reindexing
        assert np.array_equal(
            np.sort(np.abs(permute(state).amplitudes)),
            np.sort(np.abs(state.amplitudes)),
        )


def test_sector_pauli_exclusion_returns_zero_vector():
    space = SpaceSpec(4, 2)
    doubled = tensor_state(basis_vector(0, 0, space), basis_vector(0, 0, space))
    excluded = sector(doubled, Statistics.FERMION)
    assert excluded.norm == 0.0


def test_fermion_sector_of_momentum_pair():
    state = sector(momentum_pair(1, 7), Statistics.FERMION)
    inv_sqrt2 = 1 / np.sqrt(2)
    direct = momentum_pair(1, 7).amplitudes
    swapped = permute(momentum_pair(1, 7)).amplitudes
    assert np.max(np.abs(state.amplitudes - inv_sqrt2 * (direct - swapped))) == 0.0
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_boson_sector_of_orthogonal_basis_pair():
    space = SpaceSpec(2, 1)
    state = sector(
        tensor_state(basis_vector(0, 0, space), basis_vector(1, 0, space)),
        Statistics.BOSON,
    )
    inv_sqrt2 = 1 / np.sqrt(2)
    assert state.amplitudes[1] == pytest.approx(inv_sqrt2)
    assert state.amplitudes[2] == pytest.approx(inv_sqrt2)
    assert state.norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("stat,eigenvalue", [(Statistics.FERMION, -1), (Statistics.BOSON, 1)])
def test_sector_output_is_permutation_eigenvector(stat, eigenvalue):
    rng = np.random.default_rng(22)
    for _ in range(10):
        state = sector(random_state(rng, SpaceSpec(3, 2)), stat)
        residual = permute(state).amplitudes - eigenvalue * state.amplitudes
        assert np.linalg.norm(residual) < 1e-12


def test_sector_images_are_mutually_orthogonal():
    rng = np.random.default_rng(23)
    space = SpaceSpec(3, 2)
    for _ in range(10):
        fermionic = sector(random_state(rng, space), Statistics.FERMION)
        bosonic = sector(random_state(rng, space), Statistics.BOSON)
        assert abs(inner_product(fermionic, bosonic)) < 1e-12


@pytest.mark.parametrize("stat", list(Statistics))
def test_sector_applied_twice_scales_by_sqrt2(stat):
    rng = np.random.default_rng(24)
    state = random_state(rng, SpaceSpec(3, 2))
    once = sector(state, stat)
    twice = sector(once, stat)
    assert np.max(np.abs(twice.amplitudes - np.sqrt(2) * once.amplitudes)) < 1e-12


def test_sector_preserves_norm_when_overlap_vanishes():
    # strictly upper-triangular coefficients guarantee <psi|P psi> = 0 exactly
    rng = np.random.default_rng(25)
    space = SpaceSpec(3, 2)
    dim = space.total_dim
    from pairmeasure import TwoParticleState

    for stat in Statistics:
        for _ in range(10):
            coeff = np.triu(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
                k=1,
            )
            coeff /= np.linalg.norm(coeff)
            state = TwoParticleState(space, coeff.reshape(-1))
            assert state.norm == pytest.approx(1.0, abs=1e-12)
            assert inner_product(state, permute(state)) == 0.0
            assert sector(state, stat).norm == pytest.approx(1.0, abs=1e-12)


def test_permutation_overlap_cases():
    space = SpaceSpec(2, 1)
    def overlap(state):
        return inner_product(state, permute(state))

    crossed = tensor_state(basis_vector(0, 0, space), basis_vector(1, 0, space))
    assert overlap(crossed) == 0.0
    doubled = tensor_state(basis_vector(0, 0, space), basis_vector(0, 0, space))
    assert overlap(doubled) == pytest.approx(1.0)
    assert abs(overlap(momentum_pair(1, 7))) < 1e-14


def test_orthogonal_sum_residual_vanishes_on_random_states():
    rng = np.random.default_rng(26)
    space = SpaceSpec(2, 2)
    for _ in range(100):
        assert orthogonal_sum_residual(random_state(rng, space)) < 1e-12


def test_orthogonal_sum_residual_on_momentum_pair_and_zero():
    assert orthogonal_sum_residual(momentum_pair(1, 7)) < 1e-12
    from pairmeasure import TwoParticleState

    zero = TwoParticleState(SpaceSpec(2, 2), np.zeros(16))
    assert orthogonal_sum_residual(zero) == 0.0
