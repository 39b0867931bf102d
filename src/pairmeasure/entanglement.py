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
``ZERO_TOL``), applied by the same ``hilbert._negligible`` that decides the
verdict's zero tests: a singular value counts toward a rank unless it is
negligible against sigma_max, and a state is antisymmetric when
||C + C^T|| is negligible against ||C||.

:func:`schmidt` is one SVD of the normalized core and the private report
builder ``_report``, which turns that spectrum into the report.
``measurement.measure_pair`` calls ``_report`` on a spectrum from the one
SVD call it shares with the direct event's rank, so its report is the one
``schmidt`` gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .hilbert import ZERO_TOL, TwoParticleState, _negligible
from .symmetry import _exchange_norm


@dataclass(frozen=True)
class EntanglementReport:
    """Schmidt data of a normalized pair state.

    ``singular_values`` descend: the min(a, b) values of the state's a x b
    core (n for a dense state). ``schmidt_rank`` counts those above tol *
    sigma_max; ``entropy`` is -sum(lam * ln(lam)) in nats over the normalized
    squared spectrum, with 0*ln(0) = 0; ``slater_rank`` only for antisymmetric states.
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


def _rank(sigma: np.ndarray, tol: float) -> int:
    """Count of descending singular values not negligible against sigma_max."""
    return int(np.count_nonzero(~_negligible(sigma, sigma[0], tol)))


def schmidt(state: TwoParticleState, tol: float = ZERO_TOL) -> EntanglementReport:
    """Schmidt decomposition report of the state, normalized internally.

    The SVD runs on the state's a x b core, where a side without a basis
    counts n: isometries on either slot leave the nonzero singular values
    unchanged, so the core's min(a, b) values are the spectrum, whatever
    the size of the space. A zero state raises DegenerateInputError, and so
    does an antisymmetric state whose degenerate pairs do not all lie on
    one side of tol * sigma_max.
    """
    normalized = state.normalize()
    return _report(normalized, np.linalg.svd(normalized.core, compute_uv=False), tol)


def _report(state: TwoParticleState, sigma: np.ndarray, tol: float) -> EntanglementReport:
    """The Schmidt report of a unit-norm ``state`` whose core has spectrum ``sigma``."""
    rank = _rank(sigma, tol)
    # sigma[0] may round above 1; renormalizing and clamping keeps entropy >= 0.
    lam = sigma * sigma / sigma.dot(sigma)
    positive = lam[lam > 0.0]
    entropy = max(0.0, -float(positive @ np.log(positive)))
    slater = None
    if _negligible(_exchange_norm(state, 1.0), state.norm, tol):
        if rank % 2:
            raise DegenerateInputError(
                f"singular values fail to pair up ({rank} above tol * sigma_max, "
                f"tol = {tol:g}); a degenerate pair of the antisymmetric spectrum "
                "straddles the threshold, so there is no Slater count at this tol"
            )
        slater = rank // 2
    return EntanglementReport(sigma, rank, entropy, slater)

