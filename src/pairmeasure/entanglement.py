"""Entanglement diagnostics on the slot bipartition of a pair state.

Quantifies what the measurement classifier only asserts: Schmidt singular
values, rank and entropy of the coefficient matrix, and the Slater rank for
antisymmetric (fermionic) states, where the singular values pair up and
rank 1 means a single Slater determinant, i.e. no entanglement in the
fermionic sense.

Rank and entropy are taken on the distinguishable slot bipartition. For
symmetric (bosonic) states this plain Schmidt rank is reported as-is; it is
a bipartition diagnostic, not a committed bosonic entanglement measure.

Every ``tol`` is the package's one relative tolerance (default
``ZERO_TOL``), the same that sizes the verdict's zero tests: a singular
value counts toward a rank when it is above tol * sigma_max, and a state is
antisymmetric when ||C + C^T|| < tol * ||C||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .hilbert import ZERO_TOL, TwoParticleState
from .symmetry import _exchange_sum


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


def _is_antisymmetric(state: TwoParticleState, tol: float) -> bool:
    """||C + C^T|| < tol * ||C||."""
    return np.linalg.norm(_exchange_sum(state, 1.0)) < tol * state.norm


def _rank(sigma: np.ndarray, tol: float) -> int:
    """Count of descending singular values above tol * sigma_max."""
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def _report(state: TwoParticleState, coeff: np.ndarray, tol: float) -> EntanglementReport:
    """Schmidt data of ``state`` from ``coeff``, its unit-norm core.

    Isometries on either slot leave the nonzero singular values unchanged,
    so a state's core gives its spectrum; it is padded with zeros to
    ``total_dim`` values.
    """
    sigma = np.linalg.svd(coeff, compute_uv=False)
    rank = _rank(sigma, tol)
    # sigma[0] may round above 1; renormalizing and clamping keeps entropy >= 0.
    lam = sigma**2 / np.sum(sigma**2)
    positive = lam[lam > 0.0]
    entropy = max(0.0, float(-np.sum(positive * np.log(positive))))
    slater = None
    if _is_antisymmetric(state, tol):
        if rank % 2:
            raise DegenerateInputError(
                f"singular values fail to pair up ({rank} above tol * sigma_max, "
                f"tol = {tol:g}); a degenerate pair of the antisymmetric spectrum "
                "straddles the threshold, so there is no Slater count at this tol"
            )
        slater = rank // 2
    return EntanglementReport(
        singular_values=np.pad(sigma, (0, state.space.total_dim - sigma.size)),
        schmidt_rank=rank,
        entropy=entropy,
        slater_rank=slater,
    )


def schmidt(state: TwoParticleState, tol: float = ZERO_TOL) -> EntanglementReport:
    """Schmidt decomposition report of the state, normalized internally.

    The SVD runs on the state's a x b core, where a side without a basis
    counts n. An antisymmetric state whose degenerate pairs do not all lie
    on one side of tol * sigma_max raises DegenerateInputError.
    """
    nrm = state.norm
    if nrm == 0.0:
        raise DegenerateInputError("zero state has no Schmidt decomposition")
    return _report(state, state.core / nrm, tol)


def slater_rank(state: TwoParticleState, tol: float = ZERO_TOL) -> int:
    """Number of Slater determinants in the canonical fermionic expansion.

    The coefficient matrix of an antisymmetric state has doubly degenerate
    singular values; each pair is one determinant.
    """
    if state.norm == 0.0:
        raise DegenerateInputError("zero state has no Slater rank")
    slater = schmidt(state, tol).slater_rank
    if slater is None:
        raise ValueError("Slater rank requires an antisymmetric state")
    return slater

