from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairmeasure import (
    DegenerateInputError,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    basis_vector,
    inner_product,
    measure_pair,
    mode_index,
    momentum_projector,
    permute,
    plane_wave,
    schmidt,
    sector,
    tensor_state,
    window_projector,
)

from pairmeasure.hilbert import (
    _IDENTITY,
    TwoParticleState,
    _Basis,
    _computed,
    _frobenius,
    _negligible,
)
from pairmeasure.scenarios import _reference_state
from pairmeasure.symmetry import _exchange_norm

from helpers import orthogonal_sum_residual, random_state, random_unitary

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


def test_a_sector_that_overflows_is_refused_by_name_with_no_warning():
    # the suite turns warnings into errors, so numpy's overflow warning fails this
    state = TwoParticleState(SpaceSpec(2, 1), [1e308] * 4)
    with pytest.raises(DegenerateInputError, match="^the sector overflows a double"):
        sector(state, Statistics.BOSON)
    assert sector(state, Statistics.FERMION).norm == 0.0


def test_fermion_sector_of_momentum_pair():
    state = sector(momentum_pair(1, 7), Statistics.FERMION)
    inv_sqrt2 = 1 / np.sqrt(2)
    direct = momentum_pair(1, 7).amplitudes
    swapped = permute(momentum_pair(1, 7)).amplitudes
    # The reference is factored, and its permutation's amplitudes are a
    # product in the other order, so the two agree to roundoff.
    assert np.max(np.abs(state.amplitudes - inv_sqrt2 * (direct - swapped))) <= np.finfo(float).eps
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
    zero = TwoParticleState(SpaceSpec(2, 2), np.zeros(16))
    assert orthogonal_sum_residual(zero) == 0.0


def exchange_state(seed, kind, left_rank, right_rank, cross):
    """A state of the given kind on SpaceSpec(5, 2), n = 10 >= a + b.

    ``mixed`` rotates the first min(a, b) columns of R towards those of L, so
    ||L^H R||_F = cross exactly in exact arithmetic (capped at sqrt(min(a, b))).
    ``equal`` has L = R with K = S -+ S^T; ``one-sided`` lacks one basis.
    """
    rng = np.random.default_rng(seed)
    space = SpaceSpec(5, 2)
    dim = space.total_dim
    frame = random_unitary(rng, dim)

    def gauss(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    if kind == "dense":
        return TwoParticleState(space, gauss(dim, dim).reshape(-1))
    if kind == "one-sided":
        basis = frame[:, :left_rank]
        checked = _Basis.checked(basis, dim, "basis")
        if seed % 2:
            return _computed(space, gauss(left_rank, dim), checked, _IDENTITY, "a state")
        return _computed(space, gauss(dim, left_rank), _IDENTITY, checked, "a state")
    if kind == "equal":
        basis = frame[:, :left_rank]
        square = gauss(left_rank, left_rank)
        core = square + (1 if seed % 2 else -1) * square.T
        return TwoParticleState.from_factors(space, basis, core, basis)
    shared = min(left_rank, right_rank)
    sine = min(1.0, cross / np.sqrt(shared))
    left = frame[:, :left_rank]
    right = frame[:, left_rank : left_rank + right_rank].copy()
    right[:, :shared] *= np.sqrt(1.0 - sine**2)
    right[:, :shared] += sine * left[:, :shared]
    return TwoParticleState.from_factors(space, left, gauss(left_rank, right_rank), right)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from([-1.0, 1.0]),
    kind=st.sampled_from(["mixed", "mixed", "equal", "one-sided", "dense"]),
    left_rank=st.integers(1, 5),
    right_rank=st.integers(1, 5),
    cross=st.one_of(
        st.floats(0.0, np.sqrt(5.0)),
        st.sampled_from([0.0, 0.5 * (1 - 1e-12), 0.5, 0.5 * (1 + 1e-12), 0.49, 0.51]),
    ),
)
@example(seed=1, sign=-1.0, kind="equal", left_rank=4, right_rank=4, cross=0.0)
@example(seed=2, sign=1.0, kind="equal", left_rank=4, right_rank=4, cross=0.0)
@example(seed=3, sign=-1.0, kind="mixed", left_rank=3, right_rank=2, cross=0.5 - 1e-12)
@example(seed=3, sign=-1.0, kind="mixed", left_rank=3, right_rank=2, cross=0.5 + 1e-12)
def test_exchange_norm_matches_dense_on_both_sides_of_its_switch(
    seed, sign, kind, left_rank, right_rank, cross
):
    state = exchange_state(seed, kind, left_rank, right_rank, cross)
    coeff = state.matrix()
    want = np.linalg.norm(coeff + sign * coeff.T)
    with mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
        got = _exchange_norm(state, sign)
    assert abs(got - want) <= 1e-13 * np.linalg.norm(coeff)
    # The closed form runs exactly when both bases exist and ||L^H R||_F <= 1/2.
    factored = state.left is not None and state.right is not None
    nearly_orthogonal = factored and _frobenius(state.left.conj().T @ state.right) <= 0.5
    assert qr.call_count == (factored and not nearly_orthogonal)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from([-1.0, 1.0]),
    left_rank=st.integers(1, 5),
    right_rank=st.integers(1, 5),
)
def test_exchange_norm_on_disjoint_supports_is_the_exact_closed_form(
    seed, sign, left_rank, right_rank
):
    # bases on disjoint coordinates have L^H R exactly zero, as opposite spins
    # or disjoint windows do: the trace term is an exact zero and is not formed
    rng = np.random.default_rng(seed)
    space = SpaceSpec(5, 2)
    dim = space.total_dim
    left, right = np.zeros((dim, left_rank), complex), np.zeros((dim, right_rank), complex)
    rows = rng.permutation(dim)
    left[rows[:5]] = random_unitary(rng, 5)[:, :left_rank]
    right[rows[5:]] = random_unitary(rng, 5)[:, :right_rank]
    core = rng.standard_normal((left_rank, right_rank)) + 1j * rng.standard_normal(
        (left_rank, right_rank)
    )
    state = TwoParticleState.from_factors(space, left, core, right)
    assert not np.count_nonzero(state.left.conj().T @ state.right)
    coeff = state.matrix()
    got = _exchange_norm(state, sign)
    assert got == (2.0 * state.norm**2) ** 0.5
    assert abs(got - np.linalg.norm(coeff + sign * coeff.T)) <= 1e-13 * np.linalg.norm(coeff)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_exchange_norm_of_an_opposite_spin_reference_is_the_exact_closed_form(sign):
    space = SpaceSpec(8, 2)
    state = _reference_state(space, 3, 3)
    coeff = state.matrix()
    got = _exchange_norm(state, sign)
    assert got == (2.0 * state.norm**2) ** 0.5
    assert abs(got - np.linalg.norm(coeff + sign * coeff.T)) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    left_rank=st.integers(1, 5),
    right_rank=st.integers(1, 5),
    cross=st.one_of(st.floats(0.0, 0.5), st.sampled_from([0.0, 0.5 * (1 - 1e-12), 0.5])),
    tol=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([1e-300, 1e-10, 0.5, 1.0 - 2**-53]),
    ),
)
def test_states_on_nearly_orthogonal_bases_are_not_antisymmetric(
    seed, left_rank, right_rank, cross, tol
):
    # ||L^H R||_F <= 1/2 puts ||C + C^T||^2 at least 1.5 ||K||^2, and no tol
    # below 1 makes that negligible against ||K||: the Slater test says no
    state = exchange_state(seed, "mixed", left_rank, right_rank, cross)
    x = state._left.to(state._right)
    assume(_frobenius(x) <= 0.5 and state.norm > 0.0)
    assert not _negligible(_exchange_norm(state, 1.0), state.norm, tol)
    assert schmidt(state, tol).slater_rank is None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from([-1.0, 1.0]),
    kind=st.sampled_from(["mixed", "equal", "one-sided", "dense"]),
    left_rank=st.integers(1, 5),
    right_rank=st.integers(1, 5),
    cross=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    scale=st.sampled_from([1e-200, 1e200]),
)
def test_exchange_norm_of_tiny_and_huge_states_scales_with_the_state(
    seed, sign, kind, left_rank, right_rank, cross, scale
):
    # the squares of these norms under- or overflow a double, yet the norm,
    # the Slater test and the sector test answer as on the unscaled state
    unit = exchange_state(seed, kind, left_rank, right_rank, cross)
    scaled = _computed(unit.space, scale * unit.core, unit._left, unit._right, "a state")
    want = _exchange_norm(unit, sign)
    assert abs(_exchange_norm(scaled, sign) - scale * want) <= 1e-13 * scale * unit.norm
    assert _negligible(_exchange_norm(scaled, sign), scaled.norm, 1e-10) == _negligible(
        want, unit.norm, 1e-10
    )


@pytest.mark.parametrize("stat", list(Statistics))
def test_a_reference_of_tiny_norm_is_measured_as_its_unit_multiple(stat):
    space = SpaceSpec(8, 2)
    unit = _reference_state(space, 1, 6)
    tiny = _computed(space, 1e-200 * unit.core, unit._left, unit._right, "a state")
    measures = {
        "momentum": momentum_projector(1, 6, space),
        "windows": SelectiveMeasure(window_projector(2, 1, space), window_projector(5, 1, space)),
        "overlapping": SelectiveMeasure(window_projector(2, 3, space), window_projector(3, 3, space)),
    }
    for name, measure in measures.items():
        want, got = measure_pair(measure, unit, stat), measure_pair(measure, tiny, stat)
        assert got.verdict == want.verdict, name
        assert got.report.schmidt_rank == want.report.schmidt_rank, name
        assert got.report.slater_rank == want.report.slater_rank, name
        assert np.allclose(got.report.singular_values, want.report.singular_values), name
