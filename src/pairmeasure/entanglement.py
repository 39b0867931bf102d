"""Entanglement diagnostics on the slot bipartition of a pair state.

Quantifies what the measurement classifier only asserts: Schmidt singular
values, rank and entropy of the coefficient matrix, reduced density
matrices per slot, and the Slater rank for antisymmetric (fermionic)
states, where the singular values pair up and rank 1 means a single Slater
determinant, i.e. no entanglement in the fermionic sense.

Rank and entropy are taken on the distinguishable slot bipartition. For
symmetric (bosonic) states this plain Schmidt rank is reported as-is; it is
a bipartition diagnostic, not a committed bosonic entanglement measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .hilbert import ZERO_TOL, TwoParticleState
from .measurement import (
    CollapseResult,
    EventPair,
    SelectiveMeasure,
    _collapse,
    _is_zero,
    events,
    measure_scale,
)
from .symmetry import Statistics, _exchange_sum

# Relative singular-value threshold for rank counting.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class EntanglementReport:
    """Schmidt data of a normalized pair state.

    ``singular_values`` descend; ``schmidt_rank`` counts those above
    tol * sigma_max; ``entropy`` is -sum(lam * ln(lam)) in nats over the
    normalized squared spectrum, with 0*ln(0) = 0; ``slater_rank`` is filled
    only for antisymmetric states.
    """

    singular_values: np.ndarray
    schmidt_rank: int
    entropy: float
    slater_rank: int | None = None


@dataclass(frozen=True)
class EbmEvidence:
    """Before/after Schmidt ranks showing whether a measurement entangled."""

    rank_before: int
    rank_after: int
    entangled_by_measure: bool


def coefficient_matrix(state: TwoParticleState) -> np.ndarray:
    """Amplitudes as a matrix: rows index slot-1 modes, columns slot-2 modes."""
    if state.norm == 0.0:
        raise DegenerateInputError("zero state has no coefficient matrix")
    return state.matrix().copy()


def _is_antisymmetric(state: TwoParticleState, tol: float) -> bool:
    return np.linalg.norm(_exchange_sum(state, 1.0)) < tol * state.norm


def _rank(sigma: np.ndarray, tol: float) -> int:
    """Count of descending singular values above tol * sigma_max."""
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def _report(
    coeff: np.ndarray, tol: float, antisymmetric: bool, size: int
) -> EntanglementReport:
    """Schmidt data of unit-norm coefficients in any orthonormal product basis.

    Isometries on either slot leave the nonzero singular values unchanged,
    so a state's core gives its spectrum; it is padded with zeros to
    ``size`` values.
    """
    sigma = np.linalg.svd(coeff, compute_uv=False)
    rank = _rank(sigma, tol)
    # sigma[0] may round above 1; renormalizing and clamping keeps entropy >= 0.
    lam = sigma**2 / np.sum(sigma**2)
    positive = lam[lam > 0.0]
    entropy = max(0.0, float(-np.sum(positive * np.log(positive))))
    slater = None
    if antisymmetric:
        if rank % 2:
            raise ValueError(
                f"singular values fail to pair up ({rank} above threshold); "
                "degenerate spectrum too noisy for a Slater count"
            )
        slater = rank // 2
    return EntanglementReport(
        singular_values=np.concatenate([sigma, np.zeros(size - sigma.size)]),
        schmidt_rank=rank,
        entropy=entropy,
        slater_rank=slater,
    )


def schmidt(state: TwoParticleState, tol: float = RANK_TOL) -> EntanglementReport:
    """Schmidt decomposition report of the state, normalized internally.

    The SVD runs on the state's core: the n x n matrix of a dense state, the
    a x b core of a factored one.
    """
    nrm = state.norm
    if nrm == 0.0:
        raise DegenerateInputError("zero state has no Schmidt decomposition")
    return _report(
        state.core / nrm, tol, _is_antisymmetric(state, tol), state.space.total_dim
    )


def _post_report(
    result: CollapseResult, core: np.ndarray, tol: float = RANK_TOL
) -> EntanglementReport | None:
    """Schmidt report of a collapsed state from its core; None when impossible."""
    if result.normalized is None:
        return None
    antisymmetric = _is_antisymmetric(result.normalized, tol)
    size = result.raw.space.total_dim
    return _report(core / np.linalg.norm(core), tol, antisymmetric, size)


def slater_rank(state: TwoParticleState, tol: float = RANK_TOL) -> int:
    """Number of Slater determinants in the canonical fermionic expansion.

    The coefficient matrix of an antisymmetric state has doubly degenerate
    singular values; each pair is one determinant.
    """
    if state.norm == 0.0:
        raise DegenerateInputError("zero state has no Slater rank")
    if not _is_antisymmetric(state, tol):
        raise ValueError("Slater rank requires an antisymmetric state")
    return schmidt(state, tol).slater_rank


def reduced_density(state: TwoParticleState, slot: int) -> np.ndarray:
    """Reduce the normalized state to one slot by tracing out the other.

    Returns a Hermitian, positive-semidefinite matrix of unit trace over the
    single-particle modes of the kept slot (1 or 2).
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot}")
    nrm = state.norm
    if nrm == 0.0:
        raise DegenerateInputError("zero state has no reduced density matrix")
    coeff = state.matrix() / nrm
    if slot == 1:
        return coeff @ coeff.conj().T
    return coeff.T @ coeff.conj()


def _rank_evidence(
    pair: EventPair,
    scale: float,
    after: EntanglementReport | None,
    zero_tol: float,
    tol: float = RANK_TOL,
) -> EbmEvidence | None:
    """Before/after rank rule; None when the direct event or ``after`` is missing.

    The before-rank is read off the direct event's core.
    """
    if after is None or _is_zero(pair.norm_direct, scale, zero_tol):
        return None
    rank_before = _rank(np.linalg.svd(pair.core_direct, compute_uv=False), tol)
    return EbmEvidence(rank_before, after.schmidt_rank, after.schmidt_rank > rank_before)


def ebm_evidence(
    measure: SelectiveMeasure,
    ref_state: TwoParticleState,
    stat: Statistics,
    tol: float = RANK_TOL,
) -> EbmEvidence:
    """Compare Schmidt ranks before and after symmetrized collapse.

    "Before" is the rank of the direct event alone, the would-be outcome on
    distinguishable particles; "after" is the rank of the collapsed
    symmetrized state. A strict increase is entanglement created by the
    measurement itself. Raises DegenerateInputError when the direct event
    is zero by the verdict's test or the outcome is impossible.
    """
    pair = events(measure, ref_state)
    result, core = _collapse(pair, measure, ref_state, stat, ZERO_TOL)
    scale = measure_scale(measure) * ref_state.norm
    evidence = _rank_evidence(pair, scale, _post_report(result, core, tol), ZERO_TOL, tol)
    if evidence is None:
        raise DegenerateInputError("direct event or outcome is zero; nothing to compare")
    return evidence
