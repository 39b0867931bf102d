"""Seeded random generators and oracles shared by the test modules."""

import dataclasses
import enum

import numpy as np

from pairmeasure import (
    OneParticleOperator,
    SelectiveMeasure,
    SingleParticleVector,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    VerdictTag,
    sector,
)


def random_state(rng, space: SpaceSpec, normalized: bool = True) -> TwoParticleState:
    amps = rng.standard_normal(space.pair_dim) + 1j * rng.standard_normal(space.pair_dim)
    if normalized:
        amps = amps / np.linalg.norm(amps)
    return TwoParticleState(space, amps)


def random_vector(rng, space: SpaceSpec) -> SingleParticleVector:
    amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return SingleParticleVector(space, amps)


def random_unitary(rng, dim: int) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_factored_state(rng, space: SpaceSpec, left_rank: int, right_rank: int):
    """L K R^T with random isometries L, R and a random core."""
    dim = space.total_dim
    core = rng.standard_normal((left_rank, right_rank)) + 1j * rng.standard_normal(
        (left_rank, right_rank)
    )
    return TwoParticleState.from_factors(
        space,
        random_unitary(rng, dim)[:, :left_rank],
        core,
        random_unitary(rng, dim)[:, :right_rank],
    )


def as_dense(state: TwoParticleState) -> TwoParticleState:
    """The same amplitudes as a dense state."""
    return TwoParticleState(state.space, state.amplitudes)


def reduced_density(state: TwoParticleState, slot: int) -> np.ndarray:
    """The normalized state's density on slot 1 or 2, the other traced out."""
    coeff = state.matrix() / state.norm
    return coeff @ coeff.conj().T if slot == 1 else coeff.T @ coeff.conj()


def orthogonal_sum_residual(state: TwoParticleState) -> float:
    """||state - (fermion sector + boson sector)/sqrt(2)||, an algebraic zero."""
    sectors = [sector(state, stat).amplitudes for stat in Statistics]
    return float(np.linalg.norm(state.amplitudes - sum(sectors) / np.sqrt(2)))


def random_projector(rng, space: SpaceSpec, rank: int) -> OneParticleOperator:
    basis = random_unitary(rng, space.total_dim)[:, :rank]
    return OneParticleOperator(space, basis @ basis.conj().T)


def random_measure(rng, space: SpaceSpec, rank1: int, rank2: int) -> SelectiveMeasure:
    return SelectiveMeasure(
        random_projector(rng, space, rank1), random_projector(rng, space, rank2)
    )


def identity_operator(space: SpaceSpec) -> OneParticleOperator:
    return OneParticleOperator(space, np.eye(space.total_dim, dtype=complex))


def identity_measure(space: SpaceSpec) -> SelectiveMeasure:
    eye = identity_operator(space)
    return SelectiveMeasure(eye, eye)


def _dense_decision_values(measure: SelectiveMeasure, state: TwoParticleState):
    """Event norms, ||A^H B||_F, the factor scale and the event scale, densely."""
    first, second = measure.factor_slot1.entries, measure.factor_slot2.entries
    full = np.kron(first, second)
    dim = state.space.total_dim
    direct = full @ state.amplitudes
    permuted = full @ state.amplitudes.reshape(dim, dim).T.reshape(-1)
    factor_scale = float(np.max(np.linalg.norm(full, axis=0)))
    norms = np.array([np.linalg.norm(direct), np.linalg.norm(permuted)])
    exclusivity = np.linalg.norm(first.conj().T @ second)
    return norms, exclusivity, factor_scale, factor_scale * np.linalg.norm(state.amplitudes)


def decision_margins(measure: SelectiveMeasure, state: TwoParticleState, tol: float):
    """Event norms over tol * scale and ||A^H B||_F over tol * factor scale, densely."""
    norms, exclusivity, factor_scale, scale = _dense_decision_values(measure, state)
    if scale == 0.0:
        return np.zeros(3)
    return np.append(norms / (tol * scale), exclusivity / (tol * factor_scale))


def brute_force_verdict(measure: SelectiveMeasure, state: TwoParticleState, tol: float):
    """Classification redone through the dense pair-space matrix of the measure.

    Both events nonzero: entangling when A^H B, formed from the factors'
    dense entries, is below tol * factor scale, so A x B and B x A are
    mutually exclusive.
    """
    norms, exclusivity, factor_scale, scale = _dense_decision_values(measure, state)
    direct_zero, permuted_zero = (norms < tol * scale) | (scale == 0.0)
    if direct_zero and permuted_zero:
        return VerdictTag.BOTH_ZERO
    if direct_zero or permuted_zero:
        return VerdictTag.LOCAL_OPERATION
    if exclusivity < tol * factor_scale:
        return VerdictTag.ENTANGLING_MEASUREMENT
    return VerdictTag.NON_ORTHOGONAL_EVENTS


def assert_spectra_match(got: np.ndarray, want: np.ndarray, bound: float = 1e-12) -> None:
    """Two descending spectra of one state, each as long as its core's shorter side.

    The shorter equals the longer's leading values to ``bound``, and the
    longer's remaining values are at most ``bound``: the spectra agree once
    both are padded with zeros.
    """
    shorter, longer = sorted((got, want), key=len)
    assert np.max(np.abs(longer[: len(shorter)] - shorter), initial=0.0) < bound
    assert np.all(longer[len(shorter) :] <= bound)


def momentum_matrix(state: TwoParticleState) -> np.ndarray:
    """The coefficient matrix with both extrinsic indices taken to momentum modes.

    Site amplitude x picks up exp(-2i*pi*m*x/L)/sqrt(L): an orthonormal
    ``np.fft`` over the extrinsic part of each index of the dense matrix,
    so ``plane_wave(m, s)`` goes to the mode ket (m, s).
    """
    sites, spins = state.space.extrinsic_dim, state.space.spin_dim
    grid = state.matrix().reshape(sites, spins, sites, spins)
    grid = np.fft.fft(np.fft.fft(grid, axis=0, norm="ortho"), axis=2, norm="ortho")
    return grid.reshape(state.space.total_dim, state.space.total_dim)


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


def result_bits(value) -> tuple:
    """Every field of a result, down to array bytes and float bits, for ``==``."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (float, complex)):
        return (type(value).__name__, complex(value).real.hex(), complex(value).imag.hex())
    if isinstance(value, TwoParticleState):
        fields = (value.left, value.core, value.right, value.norm)
        return ("state",) + tuple(map(result_bits, fields))
    if dataclasses.is_dataclass(value):
        fields = (getattr(value, field.name) for field in dataclasses.fields(value))
        return (type(value).__name__,) + tuple(map(result_bits, fields))
    if isinstance(value, enum.Enum):
        return (value.value,)
    assert value is None or isinstance(value, (bool, int, str)), type(value)
    return (value,)
