import gc
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairmeasure import hilbert
from pairmeasure import (
    DimensionMismatchError,
    InputTooLargeError,
    OneParticleOperator,
    SelectiveMeasure,
    SingleParticleVector,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    apply_measure,
    basis_vector,
    inner_product,
    mode_index,
    momentum_projector,
    permute,
    plane_wave,
    scenario_momentum_projection,
    sector,
    tensor_state,
    window_projector,
)
from pairmeasure.measurement import window_sites

from helpers import (
    as_dense,
    identity_operator,
    momentum_matrix,
    random_factored_state,
    random_state,
    random_unitary,
    random_vector,
)


def test_space_spec_dims():
    space = SpaceSpec(extrinsic_dim=4, spin_dim=2)
    assert space.total_dim == 8
    assert space.pair_dim == 64


@pytest.mark.parametrize("extrinsic,spin", [(0, 2), (3, 0), (-1, 2)])
def test_space_spec_rejects_bad_dims(extrinsic, spin):
    with pytest.raises(ValueError):
        SpaceSpec(extrinsic, spin)


def test_mode_index_zero_case():
    space = SpaceSpec(4, 2)
    assert mode_index(0, 0, space) == 0


def test_mode_index_arithmetic():
    space = SpaceSpec(4, 2)
    assert mode_index(2, 1, space) == 5


def test_mode_index_roundtrip_is_bijective():
    space = SpaceSpec(3, 2)
    seen = set()
    for extrinsic in range(3):
        for spin in range(2):
            flat = mode_index(extrinsic, spin, space)
            assert divmod(flat, space.spin_dim) == (extrinsic, spin)
            seen.add(flat)
    assert seen == set(range(space.total_dim))


def test_mode_index_range_errors():
    space = SpaceSpec(4, 2)
    with pytest.raises(IndexError):
        mode_index(4, 0, space)
    with pytest.raises(IndexError):
        mode_index(0, 2, space)


def test_tensor_state_basis_case():
    space = SpaceSpec(2, 2)
    state = tensor_state(basis_vector(0, 1, space), basis_vector(1, 1, space))
    # slot-1 mode 1, slot-2 mode 3 -> flat index 1 * 4 + 3
    expected = np.zeros(16, dtype=complex)
    expected[1 * 4 + 3] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_tensor_state_builds_momentum_spin_product():
    space = SpaceSpec(8, 2)
    up, down = 0, 1
    state = tensor_state(plane_wave(1, up, space), plane_wave(7, down, space))
    coeff = state.matrix()
    for x1 in range(8):
        for x2 in range(8):
            expected = np.exp(2j * np.pi * (x1 + 7 * x2) / 8) / 8
            assert coeff[mode_index(x1, up, space), mode_index(x2, down, space)] == pytest.approx(expected)
            assert coeff[mode_index(x1, down, space), mode_index(x2, up, space)] == 0.0
    assert state.norm == pytest.approx(1.0)


def test_tensor_state_norm_is_product_of_norms():
    rng = np.random.default_rng(11)
    space = SpaceSpec(3, 2)
    for _ in range(10):
        u, v = random_vector(rng, space), random_vector(rng, space)
        assert tensor_state(u, v).norm == pytest.approx(u.norm * v.norm, abs=1e-12)


def test_tensor_state_rejects_mismatched_spaces():
    with pytest.raises(DimensionMismatchError):
        tensor_state(
            basis_vector(0, 0, SpaceSpec(2, 2)), basis_vector(0, 0, SpaceSpec(3, 2))
        )


def test_tensor_state_is_bilinear():
    rng = np.random.default_rng(12)
    space = SpaceSpec(4, 2)
    u, u2, v = (random_vector(rng, space) for _ in range(3))
    alpha = 0.3 - 1.7j
    combo = SingleParticleVector(space, alpha * u.amplitudes + u2.amplitudes)
    left = tensor_state(combo, v).amplitudes
    right = alpha * tensor_state(u, v).amplitudes + tensor_state(u2, v).amplitudes
    assert np.max(np.abs(left - right)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 6),
    spins=st.integers(1, 3),
    scales=st.tuples(*[st.sampled_from([0.0, 1e-100, 1e-50, 1.0, 1e50, 1e100])] * 2),
)
def test_tensor_state_matches_np_outer(seed, sites, spins, scales):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, spins)
    u, v = (SingleParticleVector(space, scale * random_vector(rng, space).amplitudes)
            for scale in scales)
    state = tensor_state(u, v)
    expected = np.outer(u.amplitudes, v.amplitudes)
    # one rounding for u/|u|, |u| |v|, v/|v| and each of the two products
    bound = 8 * np.finfo(float).eps * np.outer(np.abs(u.amplitudes), np.abs(v.amplitudes))
    assert np.all(np.abs(state.matrix() - expected) <= bound)
    assert state.core.shape == (1, 1)
    assert state.norm == u.norm * v.norm
    # a zero factor's side is the unit ket of mode 0, under the core [[0]]
    for vector, side in ((u, state.left), (v, state.right)):
        unit = np.zeros((space.total_dim, 1))
        if vector.norm == 0.0:
            unit[0, 0] = 1.0
            assert state.core[0, 0] == 0.0
        else:
            unit = vector.amplitudes[:, None] / vector.norm
        assert np.array_equal(side, unit)


def test_tensor_state_holds_no_dense_pair_array():
    space = SpaceSpec(2**16, 2)
    state = tensor_state(plane_wave(1, 0, space), plane_wave(2**16 - 1, 1, space))
    assert state.core.shape == (1, 1) and state.left.shape == (space.total_dim, 1)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputTooLargeError):
        state.amplitudes


def test_plane_wave_zero_mode_is_uniform():
    space = SpaceSpec(4, 2)
    wave = plane_wave(0, 0, space)
    for x in range(4):
        assert wave.amplitudes[mode_index(x, 0, space)] == pytest.approx(0.5)
        assert wave.amplitudes[mode_index(x, 1, space)] == 0.0


def test_plane_wave_alternates_on_two_sites():
    space = SpaceSpec(2, 1)
    wave = plane_wave(1, 0, space)
    inv_sqrt2 = 1 / np.sqrt(2)
    assert wave.amplitudes[0] == pytest.approx(inv_sqrt2)
    assert wave.amplitudes[1] == pytest.approx(-inv_sqrt2)


def test_plane_wave_family_is_orthonormal():
    # oracle: explicit conjugated sum over sites, no linear-algebra shortcut
    space = SpaceSpec(8, 2)
    for m in range(8):
        for mp in range(8):
            a = plane_wave(m, 0, space).amplitudes
            b = plane_wave(mp, 0, space).amplitudes
            overlap = sum(complex(a[i]).conjugate() * complex(b[i]) for i in range(16))
            expected = 1.0 if m == mp else 0.0
            assert abs(overlap - expected) < 1e-12


@pytest.mark.parametrize("sites", [2, 5, 16, 32])
def test_plane_wave_gram_matrix_is_identity(sites):
    space = SpaceSpec(sites, 1)
    waves = np.array([plane_wave(m, 0, space).amplitudes for m in range(sites)])
    gram = waves.conj() @ waves.T
    assert np.max(np.abs(gram - np.eye(sites))) < 1e-12


def test_plane_wave_phase_is_exact_on_a_large_lattice():
    # m*x is reduced mod L before the exponential, so no O(L eps) phase drift
    sites = 2048
    closed_form = np.exp(-2j * np.pi * np.arange(sites) / sites) / np.sqrt(sites)
    wave = plane_wave(sites - 1, 0, SpaceSpec(sites, 1))
    assert np.max(np.abs(wave.amplitudes - closed_form)) < 1e-14


def test_plane_wave_range_errors():
    space = SpaceSpec(4, 2)
    with pytest.raises(IndexError):
        plane_wave(4, 0, space)
    with pytest.raises(IndexError):
        plane_wave(0, 2, space)


@pytest.mark.parametrize(
    "call, label, message",
    [
        (lambda label: plane_wave(label, 0, SpaceSpec(8, 2)).amplitudes, 2.5,
         "momentum mode must be an integer, got 2.5"),
        (lambda label: mode_index(label, 0, SpaceSpec(8, 2)), 1.0,
         "extrinsic index must be an integer, got 1.0"),
        (lambda label: window_sites(label, 3, 8), 2.0,
         "window center must be an integer, got 2.0"),
    ],
    ids=["plane_wave", "mode_index", "window_sites"],
)
def test_labels_must_be_integers(call, label, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$") as raised:
        call(label)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__
    # a numpy integer is a label like a Python int
    want, got = call(int(label)), call(np.int64(label))
    assert type(got) is type(want) and np.array_equal(got, want)


def test_inner_product_of_normalized_state_is_one():
    rng = np.random.default_rng(13)
    state = random_state(rng, SpaceSpec(4, 2))
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_distinct_basis_pairs_vanishes():
    space = SpaceSpec(2, 1)
    a = tensor_state(basis_vector(0, 0, space), basis_vector(1, 0, space))
    b = tensor_state(basis_vector(1, 0, space), basis_vector(0, 0, space))
    assert inner_product(a, b) == 0.0


def test_inner_product_momentum_product_orthogonal_to_its_swap():
    space = SpaceSpec(8, 2)
    direct = tensor_state(plane_wave(1, 0, space), plane_wave(7, 1, space))
    swapped = tensor_state(plane_wave(7, 1, space), plane_wave(1, 0, space))
    assert abs(inner_product(direct, swapped)) < 1e-14


def test_inner_product_rejects_mismatched_spaces():
    rng = np.random.default_rng(18)
    with pytest.raises(DimensionMismatchError):
        inner_product(random_state(rng, SpaceSpec(2, 2)), random_state(rng, SpaceSpec(4, 2)))


def test_inner_product_is_conjugate_symmetric():
    rng = np.random.default_rng(14)
    space = SpaceSpec(4, 2)
    for _ in range(10):
        a, b = random_state(rng, space), random_state(rng, space)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-14
        )


def test_inner_product_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(15)
    space = SpaceSpec(3, 2)
    a, b = random_state(rng, space), random_state(rng, space)
    scaled = TwoParticleState(space, (2.0 + 1.0j) * a.amplitudes)
    assert inner_product(scaled, b) == pytest.approx(
        np.conj(2.0 + 1.0j) * inner_product(a, b), abs=1e-12
    )


def test_state_validation():
    space = SpaceSpec(2, 2)
    with pytest.raises(DimensionMismatchError):
        TwoParticleState(space, np.zeros(15))
    with pytest.raises(ValueError):
        TwoParticleState(space, np.full(16, np.nan))


def test_finiteness_check_accepts_an_overflowing_sum_and_refuses_non_finite_entries():
    # The sum of squared moduli of [1e308, 1e308] overflows, so the check
    # falls back to the entries, which are finite: accepted, with no warning.
    space = SpaceSpec(1, 2)
    big = TwoParticleState(space, [1e308, 1e308, 0.0, 0.0])
    assert big.amplitudes[0] == 1e308 and not big.amplitudes.flags.writeable
    for entries in ([np.inf, -np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="^amplitudes contains non-finite entries$"):
            TwoParticleState(space, entries)
        with pytest.raises(ValueError, match="^state contains non-finite entries$"):
            TwoParticleState._fresh(space, np.array(entries, dtype=complex).reshape(2, 2))


def test_a_computed_core_keeps_the_norm_its_check_formed():
    # one dot per computed core: the finiteness check's Frobenius norm is the
    # state's norm; a core taken from an existing state computes it on read
    rng = np.random.default_rng(19)
    space = SpaceSpec(3, 2)
    dim = space.total_dim
    measure = SelectiveMeasure(*(
        OneParticleOperator(space, None, range_basis=random_unitary(rng, dim)[:, :rank])
        for rank in (2, 3)
    ))
    state = random_factored_state(rng, space, 2, 3)
    computed = [
        apply_measure(measure, state),
        apply_measure(measure, as_dense(state)),
        state.normalize(),
        tensor_state(random_vector(rng, space), random_vector(rng, space)),
    ]
    for kept in computed:
        assert kept._norm is not None
        assert kept.norm == hilbert._frobenius(kept.core)
    core = rng.standard_normal((dim, dim)) + 0j
    with mock.patch.object(hilbert, "_frobenius", wraps=hilbert._frobenius) as frobenius:
        fresh = TwoParticleState._fresh(space, core)
        assert fresh.norm == fresh.norm == pytest.approx(np.linalg.norm(core), rel=1e-15)
    assert frobenius.call_count == 1
    swapped = permute(state)
    assert swapped._norm is state._norm is not None
    assert swapped.norm == pytest.approx(hilbert._frobenius(swapped.core), rel=1e-15)


def test_the_dense_constructor_keeps_the_norm_its_check_formed():
    rng = np.random.default_rng(29)
    space = SpaceSpec(4, 2)
    amps = rng.standard_normal(space.pair_dim) + 1j * rng.standard_normal(space.pair_dim)
    with mock.patch.object(hilbert, "_frobenius", wraps=hilbert._frobenius) as frobenius:
        state = TwoParticleState(space, amps)
        norm = state.norm
    assert frobenius.call_count == 1
    assert norm == hilbert._frobenius(state.core)


def test_from_factors_keeps_the_norm_its_core_check_formed():
    # one dot on the core: its finiteness check's norm is the state's norm
    rng = np.random.default_rng(31)
    space = SpaceSpec(4, 2)
    dim = space.total_dim
    left, right = random_unitary(rng, dim)[:, :2], random_unitary(rng, dim)[:, :3]
    core = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    with mock.patch.object(hilbert, "_frobenius", wraps=hilbert._frobenius) as frobenius:
        state = TwoParticleState.from_factors(space, left, core, right)
        norm = state.norm
    on_core = [args for args, _ in frobenius.call_args_list
               if np.shares_memory(args[0], state.core)]
    assert len(on_core) == 1
    assert norm == hilbert._frobenius(state.core)


def test_amplitudes_are_read_only():
    state = random_state(np.random.default_rng(16), SpaceSpec(2, 2))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_normalize_zero_state_fails():
    from pairmeasure import DegenerateInputError

    with pytest.raises(DegenerateInputError):
        TwoParticleState(SpaceSpec(2, 2), np.zeros(16)).normalize()


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e200])
def test_norms_of_entries_whose_squares_under_or_overflow(scale):
    eps = np.finfo(float).eps
    space = SpaceSpec(2, 2)
    full = TwoParticleState(space, np.full(space.pair_dim, scale))
    assert abs(full.norm - 4.0 * scale) <= 4 * eps * 4.0 * scale
    assert np.array_equal(full.normalize().core, np.full((4, 4), 0.25))
    if scale < np.finfo(float).tiny:
        return  # subnormal entries carry fewer than 53 bits
    rng = np.random.default_rng(37)
    amps = rng.standard_normal(space.pair_dim) + 1j * rng.standard_normal(space.pair_dim)
    state = TwoParticleState(space, scale * amps)
    want = scale * np.linalg.norm(amps)
    assert 0.0 < state.norm < np.inf
    assert abs(state.norm - want) <= 8 * eps * want
    assert abs(state.normalize().norm - 1.0) <= 4 * eps
    vector = SingleParticleVector(space, scale * amps[: space.total_dim])
    want = scale * np.linalg.norm(amps[: space.total_dim])
    assert abs(vector.norm - want) <= 8 * eps * want


# The momentum representation is read through the dense FFT oracle
# ``helpers.momentum_matrix``, which the entanglement and relabeling tests
# compare against; these tests pin the oracle to the plane-wave kets.
def test_momentum_representation_diagonalizes_plane_wave_products():
    space = SpaceSpec(8, 2)
    state = tensor_state(plane_wave(2, 0, space), plane_wave(5, 1, space))
    in_momentum = momentum_matrix(state).reshape(-1)
    expected = np.zeros(space.pair_dim, dtype=complex)
    expected[mode_index(2, 0, space) * space.total_dim + mode_index(5, 1, space)] = 1.0
    assert np.max(np.abs(in_momentum - expected)) < 1e-12


def test_momentum_representation_preserves_norm():
    rng = np.random.default_rng(17)
    state = random_state(rng, SpaceSpec(6, 2))
    assert np.linalg.norm(momentum_matrix(state)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sites", [8, 5])
def test_momentum_representation_matches_plane_wave_basis_change(sites):
    # reference: the explicit change of basis onto conjugated plane-wave kets
    rng = np.random.default_rng(18 + sites)
    space = SpaceSpec(sites, 2)
    state = random_state(rng, space)
    rows = np.array([
        np.conj(plane_wave(m, s, space).amplitudes)
        for m in range(sites)
        for s in range(space.spin_dim)
    ])
    expected = rows @ state.matrix() @ rows.T
    assert np.max(np.abs(momentum_matrix(state) - expected)) < 1e-12


def test_space_spec_refuses_pair_arrays_above_the_budget():
    # a space of any size is a shape; each site that would allocate an array
    # growing with it refuses above the budget, before allocating anything
    stat = Statistics.FERMION
    for extrinsic in (10**6, 2**40):
        space = SpaceSpec(extrinsic, 2)
        requests = [
            lambda: TwoParticleState(space, []),
            lambda: OneParticleOperator(space, []),
            lambda: window_projector(0, 1, space).entries,
            lambda: momentum_projector(0, 1, space).factor_slot2.entries,
        ]
        if extrinsic == 10**6:
            # the scenario holds no n x n array, so it runs; its dense reads do not
            post_state = scenario_momentum_projection(space, 1, None, stat).post_state
            requests += [lambda: post_state.amplitudes, lambda: sector(post_state, stat)]
        else:
            # an n x 2 basis and the scenario's n-long spectrum are too large too
            requests += [
                lambda: plane_wave(1, 0, space),
                lambda: window_projector(0, 1, space).range_basis,
                lambda: scenario_momentum_projection(space, 1, None, stat),
            ]
        for request in requests:
            with pytest.raises(InputTooLargeError, match="budget"):
                request()
    assert SpaceSpec(2048, 2).pair_dim * 16 == 256 * 2**20


def test_range_basis_is_validated_and_frozen():
    rng = np.random.default_rng(19)
    space = SpaceSpec(3, 2)
    basis = random_unitary(rng, 6)[:, :2]
    entries = basis @ basis.conj().T
    op = OneParticleOperator(space, entries, range_basis=basis)
    assert np.max(np.abs(op.range_basis @ op.range_rows - op.entries)) < 1e-14
    with pytest.raises(ValueError):
        op.range_basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        op.range_rows[0, 0] = 1.0
    with pytest.raises(ValueError, match="orthonormal"):
        OneParticleOperator(space, entries, range_basis=2.0 * basis)
    with pytest.raises(ValueError, match="span"):
        OneParticleOperator(space, entries, range_basis=basis[:, :1])
    for shape_error in (basis[:5], basis.reshape(-1), np.eye(7)[:6, :7]):
        with pytest.raises(DimensionMismatchError):
            OneParticleOperator(space, entries, range_basis=shape_error)
    plain = OneParticleOperator(space, entries)
    assert plain.range_basis is None and plain.range_rows is plain.entries


def test_factored_amplitudes_are_built_once_and_read_only():
    rng = np.random.default_rng(20)
    space = SpaceSpec(3, 2)
    state = random_factored_state(rng, space, 2, 1)
    assert state.left.shape == (6, 2) and state.core.shape == (2, 1)
    expected = (state.left @ state.core @ state.right.T).reshape(-1)
    amps = state.amplitudes
    assert amps is state.amplitudes
    assert np.max(np.abs(amps - expected)) < 1e-15
    assert state.norm == pytest.approx(np.linalg.norm(expected), abs=1e-14)
    for view in (amps, state.matrix(), state.core, state.left, state.right):
        with pytest.raises(ValueError):
            view.flat[0] = 1.0
    normalized = state.normalize()
    assert normalized.left is state.left


def test_from_factors_checks_its_factors():
    rng = np.random.default_rng(21)
    space = SpaceSpec(3, 2)
    basis = random_unitary(rng, 6)[:, :2]
    with pytest.raises(ValueError, match="orthonormal"):
        TwoParticleState.from_factors(space, 2.0 * basis, np.eye(2), basis)
    with pytest.raises(DimensionMismatchError):
        TwoParticleState.from_factors(space, basis, np.eye(3), basis)
    with pytest.raises(DimensionMismatchError):
        TwoParticleState.from_factors(space, basis[:5], np.eye(2), basis)
    with pytest.raises(ValueError, match="non-finite"):
        TwoParticleState.from_factors(space, basis, np.diag([1.0, np.nan]), basis)


def test_projectors_from_a_basis_build_their_entries_on_first_read():
    rng = np.random.default_rng(22)
    space = SpaceSpec(3, 2)
    basis = random_unitary(rng, 6)[:, :2]
    op = OneParticleOperator(space, None, range_basis=basis)
    assert np.max(np.abs(op.range_rows - basis.conj().T)) == 0.0
    entries = op.entries
    assert entries is op.entries
    assert np.max(np.abs(entries - basis @ basis.conj().T)) == 0.0
    with pytest.raises(ValueError):
        entries[0, 0] = 1.0
    with pytest.raises(ValueError, match="orthonormal"):
        OneParticleOperator(space, None, range_basis=2.0 * basis)
    with pytest.raises(ValueError, match="needs entries"):
        OneParticleOperator(space, None)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 6),
    ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_factored_inner_products_match_dense(seed, sites, ranks):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, 2)
    dim = space.total_dim
    state = random_factored_state(rng, space, *(min(rank, dim) for rank in ranks))
    other = random_factored_state(rng, space, *(min(rank, dim) for rank in ranks[::-1]))
    expected = np.vdot(state.amplitudes, other.amplitudes)
    for a, b in ((state, other), (as_dense(state), other), (state, as_dense(other))):
        assert abs(inner_product(a, b) - expected) < 1e-12
    # a basis on one side only: a projector on slot 1, the identity on slot 2
    projector = OneParticleOperator(
        space, None, range_basis=random_unitary(rng, dim)[:, : min(ranks[0], dim)]
    )
    one_sided = apply_measure(
        SelectiveMeasure(projector, identity_operator(space)), other
    )
    for half in (one_sided, permute(one_sided)):
        assert (half.left is None) is not (half.right is None)
        for a, b in ((half, state), (state, half), (half, as_dense(state))):
            assert abs(inner_product(a, b) - np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


def _closed_form_bases(space):
    """Plane-wave and coordinate bases of ``space``, full-lattice windows included."""
    sites, spins = space.extrinsic_dim, space.spin_dim
    bases = [
        hilbert._Basis.plane_waves(space, mode, chosen)
        for mode in sorted({0, sites // 2, sites - 1})
        for chosen in (range(spins), (spins - 1,))
    ]
    bases += [
        window_projector(center, width, space)._basis
        for center, width in [(0, 1), (sites - 1, 2), (sites // 2, 3), (1 % sites, sites)]
    ]
    return bases


def _dense(basis, dim):
    return np.eye(dim) if basis is hilbert._IDENTITY else basis.matrix


@pytest.mark.parametrize("spins", [1, 2, 3])
@pytest.mark.parametrize("sites", [1, 2, 3, 5, 8])
def test_closed_form_changes_of_basis_match_their_dense_products(sites, spins):
    # every kind pair of _Basis.to against U^H V of the dense matrices: two
    # closed forms build no dense array, and agree to roundoff with it
    space = SpaceSpec(sites, spins)
    dim = space.total_dim
    rng = np.random.default_rng(31 * sites + spins)
    closed = _closed_form_bases(space)
    for index in range(len(closed)):
        for second in _closed_form_bases(space):
            first = _closed_form_bases(space)[index]
            got = first.to(second)
            assert first._matrix is None and second._matrix is None
            assert got.shape == (len(first.labels), len(second.labels))
            want = first.matrix.conj().T @ second.matrix
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15
            if first.sites == second.sites:
                # [U V] up to a left isometry: the same Gram matrix
                beside = first.beside(second)
                stacked = np.concatenate([first.matrix, second.matrix], axis=1)
                gram = beside.conj().T @ beside
                assert np.max(np.abs(gram - stacked.conj().T @ stacked)) <= 1e-15
    dense = hilbert._Basis.checked(random_unitary(rng, dim)[:, : min(2, dim)], dim, "basis")
    for first in closed + [dense, hilbert._IDENTITY]:
        for second in (dense, hilbert._IDENTITY, closed[0], closed[-1]):
            got = first.to(second)
            if first is second:
                assert got is None
                continue
            want = _dense(first, dim).conj().T @ _dense(second, dim)
            assert np.max(np.abs(got - want)) <= 1e-15


def test_built_bases_are_checked_in_place_and_caller_bases_are_copied():
    rng = np.random.default_rng(23)
    basis = random_unitary(rng, 6)[:, :2]
    # the package builds no dense basis it must check: its own are closed forms
    fresh = basis.copy()
    checked = hilbert._Basis.checked(fresh, 6, "range_basis")
    assert checked.matrix is not fresh and not checked.matrix.flags.writeable
    assert np.max(np.abs(checked.adjoint @ checked.matrix - np.eye(2))) < 1e-15
    for bad, error in ((2.0 * basis, "orthonormal"), (np.full((6, 2), np.nan + 0j), "non-finite")):
        with pytest.raises(ValueError, match=error):
            hilbert._Basis.checked(bad, 6, "range_basis")
    # the public constructor copies: a caller's later write changes nothing
    mine = basis.copy()
    op = OneParticleOperator(SpaceSpec(3, 2), None, range_basis=mine)
    mine[0, 0] = 7.0
    assert op.range_basis is not mine and np.array_equal(op.range_basis, basis)


def test_reading_entries_leaves_no_dense_array_for_the_next_call():
    space = SpaceSpec(8, 2)
    for build in (lambda: window_projector(2, 3, space),
                  lambda: momentum_projector(1, 5, space).factor_slot1):
        op = build()
        entries = weakref.ref(op.entries)
        del op
        gc.collect()
        assert entries() is None
        assert build()._entries is None


def test_projectors_built_from_a_basis_read_the_adjoint_its_check_kept():
    # range_rows is the basis's U^H, laid out as U.conj().T and read-only
    space = SpaceSpec(6, 2)
    builds = {
        "window": lambda: window_projector(2, 3, space),
        "momentum": lambda: momentum_projector(1, 4, space).factor_slot1,
    }
    for name, build in builds.items():
        first = build()
        rows = first.range_rows
        assert not rows.flags.writeable, name
        want = first.range_basis.conj().T
        assert np.array_equal(rows, want) and rows.strides == want.strides, name
