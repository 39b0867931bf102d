"""Seeded random generators and oracles shared by the test modules."""

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
    return TwoParticleState(space, amps, normalized=normalized)


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


def decision_margins(measure: SelectiveMeasure, state: TwoParticleState, tol: float):
    """Event norms over tol * scale and the overlap over tol * scale**2, densely."""
    full = np.kron(measure.factor_slot1.entries, measure.factor_slot2.entries)
    dim = state.space.total_dim
    direct = full @ state.amplitudes
    permuted = full @ state.amplitudes.reshape(dim, dim).T.reshape(-1)
    scale = float(np.max(np.linalg.norm(full, axis=0))) * np.linalg.norm(state.amplitudes)
    if scale == 0.0:
        return np.zeros(3)
    norms = np.array([np.linalg.norm(direct), np.linalg.norm(permuted)])
    overlap = abs(np.vdot(direct, permuted))
    return np.append(norms / (tol * scale), overlap / (tol * scale**2))


def brute_force_verdict(measure: SelectiveMeasure, state: TwoParticleState, tol: float):
    """Classification redone through the dense pair-space matrix of the measure."""
    full = np.kron(measure.factor_slot1.entries, measure.factor_slot2.entries)
    direct = full @ state.amplitudes
    dim = state.space.total_dim
    permuted = full @ state.amplitudes.reshape(dim, dim).T.reshape(-1)
    scale = float(np.max(np.linalg.norm(full, axis=0))) * np.linalg.norm(state.amplitudes)
    direct_zero = np.linalg.norm(direct) < tol * scale or scale == 0.0
    permuted_zero = np.linalg.norm(permuted) < tol * scale or scale == 0.0
    if direct_zero and permuted_zero:
        return VerdictTag.BOTH_ZERO
    if direct_zero or permuted_zero:
        return VerdictTag.LOCAL_OPERATION
    if abs(np.vdot(direct, permuted)) < tol * scale**2:
        return VerdictTag.ENTANGLING_MEASUREMENT
    return VerdictTag.NON_ORTHOGONAL_EVENTS
