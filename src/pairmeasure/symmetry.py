"""Exchange symmetry for the particle pair.

The permutation operator swaps the two tensor slots. Applying
(1 -+ P)/sqrt(2) to a distinguishable reference state builds its fermionic
(antisymmetric) or bosonic (symmetric) sector; with that fixed 1/sqrt(2)
prefactor the result has unit norm exactly when the reference state is
orthogonal to its own permutation, and the identity

    state = (fermion sector + boson sector)/sqrt(2)

holds for every state regardless.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .hilbert import TwoParticleState, _in_bases

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Statistics(Enum):
    """Exchange statistics of the identical pair."""

    FERMION = "fermion"
    BOSON = "boson"

    @property
    def sign(self) -> float:
        """Sign of the permuted term in the sector construction."""
        return -1.0 if self is Statistics.FERMION else 1.0


def permute(state: TwoParticleState) -> TwoParticleState:
    """Swap the two tensor slots: amplitude(i, j) -> amplitude(j, i).

    L K R^T becomes R K^T L^T: the factors swap and the core is transposed,
    as a view, so nothing is copied.
    """
    return TwoParticleState._fresh(state.space, state.core.T, state.right, state.left)


def _exchange_sum(state: TwoParticleState, sign: float) -> np.ndarray:
    """M + sign M^T, whose Frobenius norm is that of C + sign C^T.

    A state with a basis on both sides takes M from one QR of the stacked
    bases, [L R] = Q T with T = [T_L T_R]: then C = Q M Q^T with
    M = T_L K T_R^T, and Q is an isometry. The norm thus comes from an
    (a + b) x (a + b) matrix, never from a difference of squared norms,
    which would resolve only about 1e-8 relative. Any other state has
    M = C, the dense coefficient matrix.
    """
    if state.left is None or state.right is None:
        coeff = _in_bases(state, None, None)
    else:
        width = state.left.shape[1]
        tri = np.linalg.qr(np.hstack([state.left, state.right]), mode="r")
        coeff = tri[:, :width] @ state.core @ tri[:, width:].T
    return coeff + sign * coeff.T


def sector(state: TwoParticleState, stat: Statistics) -> TwoParticleState:
    """Project into the fermion or boson sector: (state -+ permuted)/sqrt(2).

    The 1/sqrt(2) prefactor is fixed, never adjusted to renormalize; a zero
    result (antisymmetrizing a permutation-invariant state, i.e. Pauli
    exclusion of a doubly occupied mode) comes back as a legitimate zero
    vector.
    """
    coeff = state.matrix()
    return TwoParticleState._fresh(state.space, _INV_SQRT2 * (coeff + stat.sign * coeff.T))

