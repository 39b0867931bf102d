"""Exchange symmetry for the particle pair.

The permutation operator swaps the two tensor slots. Applying
(1 -+ P)/sqrt(2) to a distinguishable reference state builds its fermionic
(antisymmetric) or bosonic (symmetric) sector; with that fixed 1/sqrt(2)
prefactor the result has unit norm exactly when the reference state is
orthogonal to its own permutation, and the identity

    state = (fermion sector + boson sector)/sqrt(2)

holds for every state regardless. ``_exchange_norm`` gives ||C + -C^T|| on
the factors: sqrt(2) ||C|| when the two bases are exactly orthogonal
(disjoint supports: opposite spins or disjoint windows, as in both worked
scenarios), a closed form when nearly orthogonal, one QR of the stacked
bases otherwise; ``normalize`` (``hilbert._unit_scale``) takes out extreme
norms. It sizes a sector for ``measure_pair`` and is the Slater test.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .hilbert import _IDENTITY, TwoParticleState, _computed, _frobenius, _in_bases

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    as a view, so nothing is copied, and the state's norm is kept.
    """
    return TwoParticleState._fresh(state.space, state.core.T, state._right, state._left,
                                   norm=state.norm)


def _exchange_norm(state: TwoParticleState, sign: float) -> float:
    """||C + sign C^T||_F for C = L K R^T, in three tiers.

    With isometric bases and X = L^H R (O(n a b)), ||C + sign C^T||^2 =
    2 ||K||^2 + 2 sign Re tr(K^H X K^T conj(X)), whose trace term is at most
    ||X||_F^2 ||K||^2: the norm is sqrt(2) ||K|| if X is exactly zero, and
    this sum is accurate if ||X||_F <= 1/2 (coordinates against plane waves).
    Otherwise it can cancel (L = R, K = -sign K^T) past what a difference of
    squares resolves, so one QR [L R] = Q [T_L T_R] gives C = Q M Q^T for
    M = T_L K T_R^T (M = C without both bases), and the norm of M + sign M^T,
    on [L R]'s exact coordinates in the columns' union for two closed forms
    of one kind (``_Basis.beside``). One basis object on both sides has X = I.
    ``normalize`` (``hilbert._unit_scale``) first takes out a norm past 1e+-150.
    """
    core, norm = state.core, state.norm
    if not 1e-150 < norm < 1e150 and 0.0 < norm < math.inf:
        return norm * _exchange_norm(state.normalize(), sign)
    if _IDENTITY in (state._left, state._right):
        coeff = _in_bases(state, _IDENTITY, _IDENTITY)
    else:
        cross = state._left.to(state._right)
        if cross is not None and not np.count_nonzero(cross):
            return (2.0 * norm**2) ** 0.5
        if cross is not None and _frobenius(cross) <= 0.5:
            twisted = np.vdot(core, cross @ core.T @ cross.conj()).real
            return (2.0 * (norm**2 + sign * twisted)) ** 0.5
        width = core.shape[0]
        tri = np.linalg.qr(state._left.beside(state._right), mode="r")
        coeff = tri[:, :width] @ core @ tri[:, width:].T
    return _frobenius(coeff + sign * coeff.T)


def sector(state: TwoParticleState, stat: Statistics) -> TwoParticleState:
    """Project into the fermion or boson sector: (state -+ permuted)/sqrt(2).

    The 1/sqrt(2) prefactor is fixed, never adjusted to renormalize; a zero
    result (antisymmetrizing a permutation-invariant state, i.e. Pauli
    exclusion of a doubly occupied mode) comes back as a legitimate zero
    vector. A sector that overflows a double raises DegenerateInputError.
    """
    coeff = state.matrix()  # refused above the budget for a factored state
    with np.errstate(over="ignore", invalid="ignore"):
        core = _INV_SQRT2 * (coeff + stat.sign * coeff.T)
    return _computed(state.space, core, _IDENTITY, _IDENTITY, "the sector", "the state")

