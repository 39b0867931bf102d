"""Exchange symmetry for the particle pair.

The permutation operator swaps the two tensor slots. Applying
(1 -+ P)/sqrt(2) to a distinguishable reference state builds its fermionic
(antisymmetric) or bosonic (symmetric) sector; with that fixed 1/sqrt(2)
prefactor the result has unit norm exactly when the reference state is
orthogonal to its own permutation, and the identity

    state = (fermion sector + boson sector)/sqrt(2)

holds for every state regardless. ``_exchange_norm`` gives ||C + -C^T|| on
the factors: sqrt(2) ||C|| when the two bases are exactly orthogonal
(disjoint supports, such as opposite spins or disjoint windows), a closed
form when they are nearly orthogonal, as in both worked scenarios, and one
QR of the stacked bases otherwise. The Slater test of
``entanglement._report`` needs no value when the bases are nearly
orthogonal: ||C + C^T|| is then at least sqrt(1.5) ||C||.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .hilbert import _IDENTITY, TwoParticleState, _budget, _frobenius, _in_bases

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
    as a view, so nothing is copied, and the state's norm is kept.
    """
    return TwoParticleState._fresh(state.space, state.core.T, state._right, state._left, state._norm)


def _exchange_norm(
    state: TwoParticleState, sign: float, cross: np.ndarray | None = None
) -> float:
    """||C + sign C^T||_F for C = L K R^T, in two tiers.

    With isometric bases and X = L^H R (O(n a b)), ||C + sign C^T||^2 =
    2 ||K||^2 + 2 sign Re tr(K^H X K^T conj(X)), whose trace term is at most
    ||X||_2^2 ||K||^2 <= ||X||_F^2 ||K||^2. If ||X||_F <= 1/2 the sum lies in
    [1.5, 2.5] ||K||^2: nothing cancels, and this closed form is accurate to
    O(eps) relative. Otherwise it can cancel to zero (L = R, K = -sign K^T),
    where a difference of squares resolves only about 1e-8; then one QR
    [L R] = Q [T_L T_R] gives C = Q M Q^T with M = T_L K T_R^T, and the norm
    is that of the (a + b)-square M + sign M^T. Without both bases, M = C.
    One basis object on both sides has X = I, so it takes the QR, which for
    two closed-form bases of one kind runs on the exact coordinates of
    [L R] in their columns' union (``_Basis.beside``). When X is exactly
    zero, the trace term is an exact zero and the closed form is sqrt(2)
    ||K||, returned without forming it. ``cross`` is X when the caller has
    formed it (``_Basis.to``), else it is formed here.
    """
    core = state.core
    if _IDENTITY in (state._left, state._right):
        coeff = _in_bases(state, _IDENTITY, _IDENTITY)
    else:
        if cross is None:
            cross = state._left.to(state._right)
        if cross is not None and not np.count_nonzero(cross):
            return (2.0 * state.norm**2) ** 0.5
        if cross is not None and _frobenius(cross) <= 0.5:
            twisted = np.vdot(core, cross @ core.T @ cross.conj()).real
            return (2.0 * (state.norm**2 + sign * twisted)) ** 0.5
        width = core.shape[0]
        tri = np.linalg.qr(state._left.beside(state._right), mode="r")
        coeff = tri[:, :width] @ core @ tri[:, width:].T
    return _frobenius(coeff + sign * coeff.T)


def sector(state: TwoParticleState, stat: Statistics) -> TwoParticleState:
    """Project into the fermion or boson sector: (state -+ permuted)/sqrt(2).

    The 1/sqrt(2) prefactor is fixed, never adjusted to renormalize; a zero
    result (antisymmetrizing a permutation-invariant state, i.e. Pauli
    exclusion of a doubly occupied mode) comes back as a legitimate zero
    vector.
    """
    _budget(state.space.pair_dim, "a dense pair array")
    coeff = state.matrix()
    return TwoParticleState._fresh(state.space, _INV_SQRT2 * (coeff + stat.sign * coeff.T))

