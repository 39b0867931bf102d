"""An exact oracle for the verdict on dyadic inputs, in ``fractions.Fraction``.

Every double is exactly a rational. For factors and states whose entries are
Gaussian integers over 8, or products of such (a projector U U^H on a basis
with entries 0 and +-1/2), the events, ||A^H B||_F^2 and the squared column
norms are rationals as well, and so are the values of a file as written. This
module forms them and the two overlaps of ``EventPair`` without rounding, on
object arrays of Fractions, and decides each zero test on squares: a value v
is negligible against ``tol * scale`` when v^2 <= tol^2 scale^2, with ``tol``
taken as the rational its double is. The scales are the package's:
``measure_scale`` (the product of the factors' largest column norms) for
||A^H B||_F, and that times ||C||_F for the two events.

The oracle is pure Python, so it is meant for n <= 8.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pairmeasure import VerdictTag

_FRACTIONS = np.vectorize(Fraction, otypes=[object])


def exact(values) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of a complex matrix, as object arrays of Fractions."""
    arr = np.asarray(values, dtype=complex)
    return _FRACTIONS(arr.real), _FRACTIONS(arr.imag)


def product(x, y):
    """X Y for two exact complex matrices."""
    (xr, xi), (yr, yi) = x, y
    return xr @ yr - xi @ yi, xr @ yi + xi @ yr


def transpose(x):
    """X^T."""
    return x[0].T, x[1].T


def adjoint(x):
    """X^H."""
    return x[0].T, -x[1].T


def _squares(x) -> np.ndarray:
    return x[0] * x[0] + x[1] * x[1]


def _sum(values: np.ndarray) -> Fraction:
    return sum(values.ravel().tolist(), Fraction(0))


def squared_norm(x) -> Fraction:
    """||X||_F^2."""
    return _sum(_squares(x))


def inner(x, y) -> tuple[Fraction, Fraction]:
    """<X, Y> = sum conj(X) Y, as its real and imaginary parts."""
    (xr, xi), (yr, yi) = x, y
    return _sum(xr * yr + xi * yi), _sum(xr * yi - xi * yr)


def squared_column_norm(x) -> Fraction:
    """The largest squared column 2-norm of X."""
    return max(_squares(x).sum(axis=0).tolist(), default=Fraction(0))


@dataclass(frozen=True)
class Decision:
    """The exact verdict and, for each zero test it reads, value^2 / (tol scale)^2.

    A test is zero when its ratio is at most 1. A test on a zero scale, whose
    value is then zero too, has ratio 0.
    """

    verdict: VerdictTag
    ratios: tuple[Fraction, ...]

    def clear_of(self, margin: Fraction) -> bool:
        """True when each tested value lies more than ``margin`` (relative) from its threshold."""
        low, high = (1 - margin) ** 2, (1 + margin) ** 2
        return all(not low <= ratio <= high for ratio in self.ratios)


def events(first, second, coeff) -> tuple:
    """The direct and permuted events A C B^T and A C^T B^T, for exact matrices."""
    return tuple(product(product(first, c), transpose(second)) for c in (coeff, transpose(coeff)))


def overlaps(first, second, coeff) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """``event_overlap`` <A C B^T, A C^T B^T> and ``ref_overlap`` <C, A C^T B^T>."""
    direct, permuted = events(first, second, coeff)
    return inner(direct, permuted), inner(coeff, permuted)


def decision(first, second, coeff, tol: float) -> Decision:
    """The verdict of the measure ``first`` x ``second`` on the pair coefficients ``coeff``.

    All three are exact matrices (:func:`exact`); ``coeff`` has the slot-1
    mode as its row, so the events are A C B^T and A C^T B^T.
    """
    factor_scale = squared_column_norm(first) * squared_column_norm(second)
    tol_squared = Fraction(tol) ** 2

    def ratio(value: Fraction, scale: Fraction) -> Fraction:
        return value / (tol_squared * scale) if scale else Fraction(0)

    state = squared_norm(coeff)
    ratios = [ratio(squared_norm(event), factor_scale * state)
              for event in events(first, second, coeff)]
    zero = [r <= 1 for r in ratios]
    if all(zero):
        return Decision(VerdictTag.BOTH_ZERO, tuple(ratios))
    if any(zero):
        return Decision(VerdictTag.LOCAL_OPERATION, tuple(ratios))
    ratios.append(ratio(squared_norm(product(adjoint(first), second)), factor_scale))
    verdict = (VerdictTag.ENTANGLING_MEASUREMENT if ratios[-1] <= 1
               else VerdictTag.NON_ORTHOGONAL_EVENTS)
    return Decision(verdict, tuple(ratios))
