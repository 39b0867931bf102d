"""Finite-dimensional building blocks for a pair of spin-carrying particles.

A single particle lives in a factored space: an extrinsic factor (lattice
sites, or equivalently momentum modes on a periodic lattice) times a spin
factor. The pair of particles lives in the tensor square of that space; a
pair state is its coefficient matrix L K R^T, where each side's basis is
either a small orthonormal one or absent, meaning the identity on that side
(see ``TwoParticleState``). Both particles are treated as distinguishable at
this level; the exchange structure is layered on top by
:mod:`pairmeasure.symmetry`.

Every basis, a pair-state side or an operator's range basis, is one
``_Basis``: checked dense columns, or the two kinds the paper's setups use,
coordinate kets and plane waves, held in closed form by their labels, whose
products are exact (see ``_Basis``). Each array that grows with the space is
refused above ``MAX_PAIR_BYTES`` where it would be allocated (``_budget``).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads. Norms and
factor sizes are kept from the checks that admit them. Dense arrays a value
builds on first read are kept too; two threads reading one at once may both
compute it, with the same result. The module keeps no shared mutable state.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InputTooLargeError

# Default tolerance for "is this zero" tests on O(1) desk-scale quantities.
ZERO_TOL = 1e-10

# Largest array of 16-byte complex entries that grows with the space a call
# may allocate (n x n pair amplitudes or operator entries, a dense n x r
# basis). A call holds several, so 256 MiB each keeps it within a few GiB.
# Dense pair arrays fit up to L = 2048 at spin 1/2; the scenarios need none.
MAX_PAIR_BYTES = 256 * 2**20

# Largest lattice that holds plane waves: the phase angle 2*pi*k of a turn
# count k < L stays a finite double up to about k = 2^1021.4.
_MAX_SITES = 2**1021


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of the single-particle space: extrinsic modes times spin states.

    ``extrinsic_dim`` counts lattice sites (or momentum modes) and
    ``spin_dim`` counts spin projections; 2 for the spin-1/2 setups the
    scenario module builds.
    """

    extrinsic_dim: int
    spin_dim: int

    def __post_init__(self):
        for name in ("extrinsic_dim", "spin_dim"):
            value = _label(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)

    @property
    def total_dim(self) -> int:
        """Dimension of the single-particle space."""
        return self.extrinsic_dim * self.spin_dim

    @property
    def pair_dim(self) -> int:
        """Dimension of the distinguishable two-particle space."""
        return self.total_dim ** 2


def _budget(count: int, what: str) -> None:
    """InputTooLargeError naming ``what`` if ``count`` complex items exceed ``MAX_PAIR_BYTES``."""
    size = count * 16
    if size > MAX_PAIR_BYTES:
        raise InputTooLargeError(f"{what} needs {size} bytes, above the {MAX_PAIR_BYTES}-byte budget")


def mode_index(extrinsic: int, spin: int, space: SpaceSpec) -> int:
    """Flat single-particle mode index for (extrinsic, spin)."""
    extrinsic, spin = _label(extrinsic, "extrinsic index"), _label(spin, "spin index")
    if not 0 <= extrinsic < space.extrinsic_dim:
        raise IndexError(f"extrinsic index {extrinsic} out of range [0, {space.extrinsic_dim})")
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    return extrinsic * space.spin_dim + spin


def _negligible(value, scale, tol: float):
    """The package's one zero test, elementwise on arrays.

    A value is negligible when it is at most ``tol * scale``, so a zero is
    negligible against every scale, also one whose product with ``tol``
    underflows to 0. Every zero, rank, antisymmetry, support and projector
    test goes through it, so ``tol`` means the same everywhere. A ``tol``
    outside (0, 1) raises ValueError: from 1 up a value is negligible
    against a scale it reaches, such as a singular value against sigma_max
    or a sector norm against its state's norm.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be finite and positive and below 1, got {tol}")
    return value <= tol * scale


def _unit_scale(arr: np.ndarray) -> float:
    """The power of two that brings the largest real or imaginary part of ``arr`` into [1/2, 1).

    That part is finite for every finite entry, also one whose modulus overflows.
    The power is at most 2^1000, and 1 for a zero or non-finite part.
    """
    largest = max(np.max(np.abs(arr.real), initial=0.0), np.max(np.abs(arr.imag), initial=0.0))
    return math.ldexp(1.0, min(-math.frexp(largest)[1], 1000))


def _frobenius(arr: np.ndarray) -> float:
    """Frobenius norm of a whole array: one BLAS dot, for arrays of any size.

    A dot whose squares may have under- or overflowed (zero, subnormal or
    infinite) is formed again on the array scaled exactly by ``_unit_scale``.
    """
    total = np.vdot(arr, arr).real
    if sys.float_info.min <= total < math.inf or not (total or np.count_nonzero(arr)):
        return math.sqrt(total)
    unit = _unit_scale(arr)
    scaled = arr if unit == 1.0 else arr * unit  # 1 only for entries that are not finite
    return math.sqrt(np.vdot(scaled, scaled).real) / unit


def _column_norm(arr: np.ndarray) -> float:
    """The largest column 2-norm of ``arr``, formed on magnitudes scaled by ``_unit_scale``."""
    unit = _unit_scale(arr)
    return float(((np.abs(arr) * unit) ** 2).sum(axis=0).max()) ** 0.5 / unit


def _checked_copy(values, shape: tuple[int, ...], what: str) -> tuple[np.ndarray, float]:
    """A read-only complex copy of ``values``, refused unless finite and of ``shape``, and its norm.

    It is the one check of an array from outside the package: every public
    constructor, and so the file reader, passes its arrays through it.
    """
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    # A finite norm (BLAS dots raise no floating-point warning) proves every entry finite.
    norm = _frobenius(arr)
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr, norm


@dataclass(eq=False, slots=True)
class _Basis:
    """An n x r matrix U with orthonormal columns, dense or in closed form.

    * Dense: :meth:`checked` checks ``matrix`` (shape, finiteness, U^H U = I
      entrywise to ``ZERO_TOL``, at O(n r^2)).
    * Coordinate columns: column j is the unit ket of mode ``labels[j]``.
    * Plane-wave columns (:meth:`plane_waves`, on ``sites`` = L): column j is
      ``plane_wave(m, s)`` for ``labels[j]`` = m * spin_dim + s.

    Closed-form columns of one kind are equal when their labels are and
    orthogonal otherwise, and a plane wave's entries on a coordinate ket are
    its phases, so :meth:`to` forms U^H V between them exactly. Their Gram
    matrix is exactly I, so their projector U U^H has no projector error
    (``OneParticleOperator._born_errors``), and its largest column norm is
    exactly 1 for coordinates and 1/sqrt(L) for plane waves
    (``OneParticleOperator``). Their dense ``matrix`` is built only when
    read. ``_IDENTITY`` is the side with no basis (U = I, ``matrix`` None).
    This type alone forms U^H and U^H V; it keeps neither.

    Nothing assigns to a basis after construction but its own first reads.
    It is not a frozen dataclass because every scenario call builds several:
    a frozen one took 0.9 us to construct against 0.2 us (CPython 3.11 on a
    shared 2-vCPU x86-64 host).
    """

    dim: int
    labels: tuple[int, ...] | None = None
    sites: int | None = None
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def checked(cls, values, dim: int, what: str) -> _Basis:
        """The dense basis on a checked copy of ``values``."""
        shape = np.shape(values)
        if len(shape) != 2 or shape[0] != dim or shape[1] > dim:
            raise DimensionMismatchError(
                f"{what} has shape {shape}, expected ({dim}, r) with r <= {dim}"
            )
        basis = cls(dim, _matrix=_checked_copy(values, shape, what)[0])
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan error is refused
            error = np.max(np.abs(basis.adjoint @ basis.matrix - np.eye(shape[1])), initial=0.0)
        if not _negligible(error, 1.0, ZERO_TOL):
            raise ValueError(f"{what} columns are not orthonormal")
        return basis

    @classmethod
    def plane_waves(cls, space: SpaceSpec, mode: int, spins) -> _Basis:
        """Plane-wave columns of integer momentum ``mode``, one per spin in ``spins``."""
        mode = _label(mode, "momentum mode")
        sites = space.extrinsic_dim
        if sites > _MAX_SITES:
            raise DegenerateInputError("plane waves need a lattice of at most 2**1021 sites; "
                                       "beyond it their phases overflow a double")
        if not 0 <= mode < sites:
            raise IndexError(f"momentum mode {mode} out of range [0, {sites})")
        return cls(space.total_dim, tuple([mode * space.spin_dim + s for s in spins]), sites)

    @property
    def matrix(self) -> np.ndarray | None:
        """U, read-only; a closed-form basis builds it on first read."""
        if self._matrix is None and self.labels is not None:
            rank = len(self.labels)
            _budget(self.dim * rank, "a dense basis")
            matrix = np.zeros((self.dim, rank), dtype=complex)
            if self.sites is None:
                matrix[list(self.labels), np.arange(rank)] = 1.0
            else:
                # the steps of _closed_product, on every site at once
                sites, spins = self.sites, self.dim // self.sites
                for column, label in enumerate(self.labels):
                    mode, spin = divmod(label, spins)
                    angles = 2 * np.pi * (mode * np.arange(sites) % sites) / sites
                    matrix[spin::spins, column] = np.exp(1j * angles) * (1.0 / math.sqrt(sites))
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    @property
    def adjoint(self) -> np.ndarray:
        """U^H, read-only, laid out as ``matrix.conj().T``; formed on each read."""
        conj = self.matrix.conj()
        conj.flags.writeable = False
        return conj.T

    @property
    def rank(self) -> int:
        """r, the number of columns."""
        return self.matrix.shape[1] if self.labels is None else len(self.labels)

    def to(self, other: _Basis) -> np.ndarray | None:
        """U^H V for ``other`` = V, mapping coefficients in V to U; None for one object.

        Between closed forms it is exact (``_closed_product``). Other pairs
        multiply the dense arrays.
        """
        if self is other:
            return None
        if self is _IDENTITY:
            return other.matrix
        if other is _IDENTITY:
            return self.adjoint
        if self.labels is None or other.labels is None:
            return self.adjoint @ other.matrix
        if self.sites is not None and other.sites is None:
            return _closed_product(other, self).conj().T
        return _closed_product(self, other)

    def beside(self, other: _Basis) -> np.ndarray:
        """[U V] up to a left isometry, which leaves a QR R factor of it one of [U V].

        For two closed forms of one kind it is the exact 0/1 coordinates of
        [U V] in the columns of the union of their labels, r + r' wide at
        most; otherwise [U V] itself.
        """
        if self.labels is not None and other.labels is not None and self.sites == other.sites:
            labels = self.labels + other.labels
            return np.equal.outer(sorted(set(labels)), labels).astype(complex)
        return np.concatenate([self.matrix, other.matrix], axis=1)


_IDENTITY = _Basis(0)


def _closed_product(coords: _Basis, other: _Basis) -> np.ndarray:
    """U^H V for closed-form bases, U = ``coords`` plane waves only if V is too.

    Of one kind (equal ``sites``) it is the 0/1 selection of equal labels.
    For coordinate columns U and plane-wave columns V, the wave of mode m and
    spin s has exp(2i*pi*(m*x mod L)/L)/sqrt(L) on the coordinate ket (x, s)
    and zero on the other spins, with m*x reduced in Python integers, which
    do not overflow, and the rounding steps of the dense columns
    (``_Basis.matrix``); the angle is finite up to L = ``_MAX_SITES``, the
    most ``_Basis.plane_waves`` takes. Exact, at O(r + r') for one kind,
    O(r r') for two.
    """
    _budget(len(coords.labels) * len(other.labels), "a change of basis")
    product = np.zeros((len(coords.labels), len(other.labels)), dtype=complex)
    if coords.sites == other.sites:
        columns = {label: column for column, label in enumerate(other.labels)}
        for row, label in enumerate(coords.labels):
            if label in columns:
                product[row, columns[label]] = 1.0
        return product
    sites, spins = other.sites, other.dim // other.sites
    scale = 1.0 / math.sqrt(sites)
    for column, label in enumerate(other.labels):
        mode, spin = divmod(label, spins)
        for row, coord in enumerate(coords.labels):
            site, coord_spin = divmod(coord, spins)
            if coord_spin == spin:
                product[row, column] = cmath.exp(2j * math.pi * (mode * site % sites) / sites) * scale
    return product


def _label(value, what: str) -> int:
    """``value`` as an int, or one TypeError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _format_float(value: float) -> str:
    """``value`` with 17 significant digits, enough to round-trip a double (files, reports)."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class SingleParticleVector:
    """Dense complex vector over the single-particle modes of ``space``, and its kept ``norm``."""

    space: SpaceSpec
    amplitudes: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        amps, norm = _checked_copy(self.amplitudes, (self.space.total_dim,), "amplitudes")
        vars(self).update(amplitudes=amps, norm=norm)


@dataclass(frozen=True, eq=False, init=False)
class OneParticleOperator:
    """Complex matrix acting on the single-particle space.

    ``range_basis``, when given, is an n x r matrix U with orthonormal
    columns whose span contains the range of ``entries``; it lets the
    measurement algebra work on r coordinates instead of n. Construction
    checks U^H U = I entrywise to ``ZERO_TOL`` and U U^H entries = entries
    to ``ZERO_TOL`` relative in the Frobenius norm, at O(n^2 r) cost.
    ``range_rows`` is U^H entries, the operator's rows in that basis;
    without a basis U is the identity and ``range_rows`` is ``entries``.

    With ``entries=None`` the operator is the orthogonal projector U U^H: only
    the basis is checked (O(n r^2)) and ``range_rows`` is U^H. Its dense
    ``entries`` are built on first read, and so are ``range_basis`` and
    ``range_rows`` of a closed-form basis (``_Basis``), which the factor reads
    in closed form instead; :meth:`_fresh` builds such closed-form projectors.
    Construction forms the largest column norm of ``range_rows`` once, as
    ``_size``: exactly 1 or 1/sqrt(L) for a projector on a closed-form basis
    alone. Range rows that overflow a double are refused by
    DegenerateInputError naming them. Only the factor knows how it holds its
    rows, so the measurement algebra has it form W S, ||A^H B||_F and its
    Born-rule errors (:meth:`_on`, :meth:`_cross`, :meth:`_born_errors`).
    """

    space: SpaceSpec

    def __init__(self, space: SpaceSpec, entries, range_basis: np.ndarray | None = None):
        # _rows: the range rows W = U^H entries, None for a projector built
        # from its basis alone (W = U^H, read off the basis).
        # _size: W's largest column norm, the factor's (a range basis is an isometry).
        dim = space.total_dim
        if entries is not None:
            _budget(space.pair_dim, "a dense operator")
            entries, norm = _checked_copy(entries, (dim, dim), "entries")
        basis = _IDENTITY
        if range_basis is not None:
            basis = _Basis.checked(range_basis, dim, "range_basis")
        if entries is None:
            if basis is _IDENTITY:
                raise ValueError("an operator needs entries or a range_basis")
            rows, size = None, _column_norm(basis.adjoint)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
                rows = entries if basis is _IDENTITY else basis.adjoint @ entries
                size = _column_norm(rows)
                if not size < math.inf and not np.isfinite(rows).all():
                    raise DegenerateInputError(
                        "the range rows overflow a double; rescale the entries")
                if basis is not _IDENTITY:
                    residual = basis.matrix @ rows
                    residual -= entries
                    if not _negligible(_frobenius(residual), norm, ZERO_TOL):
                        raise ValueError("range_basis does not span the range of entries")
                    rows.flags.writeable = False
        vars(self).update(space=space, _entries=entries, _basis=basis, _rows=rows, _size=size)

    @classmethod
    def _fresh(cls, space: SpaceSpec, basis: _Basis) -> OneParticleOperator:
        """The projector on a closed-form ``basis`` the package built; it checks nothing."""
        size = 1.0 if basis.sites is None else 1.0 / math.sqrt(basis.sites)
        op = cls.__new__(cls)
        vars(op).update(space=space, _entries=None, _basis=basis, _rows=None, _size=size)
        return op

    @property
    def range_basis(self) -> np.ndarray | None:
        """U, read-only, or None without a basis."""
        return self._basis.matrix

    @property
    def range_rows(self) -> np.ndarray:
        """W = U^H entries, read-only: U^H for a projector built from its basis alone."""
        return self._basis.adjoint if self._rows is None else self._rows

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, read-only; a projector builds it on first read."""
        if self._entries is None:
            _budget(self.space.pair_dim, "a dense operator")
            entries = self.range_basis @ self.range_rows
            entries.flags.writeable = False
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def _on(self, side: _Basis) -> np.ndarray:
        """W S: the range rows on a state side's basis S."""
        if self._rows is not None:
            return self._rows if side is _IDENTITY else self._rows @ side.matrix
        rows = self._basis.to(side)  # W = U^H; None for U = S, where U^H S = I
        return np.eye(side.rank) if rows is None else rows

    def _cross(self, other: OneParticleOperator) -> float:
        """||A^H B||_F for B = ``other``: that of W_A^H (U_A^H U_B) W_B for A = U_A W_A.

        A missing basis is the identity. A factor built from its basis alone
        has W = U^H with orthonormal rows, so it is left out: two such
        factors cost O(n r_A r_B), no n x n array.
        """
        parts = [None if self._rows is None else self._rows.conj().T,
                 self._basis.to(other._basis), other._rows]
        parts = [part for part in parts if part is not None]
        # None left: one projector U U^H in both slots, and ||U U^H||_F = ||I_r||_F.
        return _frobenius(reduce(np.matmul, parts) if parts else np.eye(self._basis.rank))

    def _born_errors(self) -> tuple[float, float, float]:
        """||A - A^H||_F, ||A A - A||_F for A = U W in range coordinates, O(n r^2), and their size.

        With G = W U and R = W - G U^H, R U = 0, so ||A - A^H||_F^2 = ||G - G^H||_F^2
        + 2 ||R||_F^2 (three orthogonal parts) and ||A A - A||_F = ||G W - W||_F,
        exactly for an isometry U; on a basis orthonormal to about delta the Hermitian
        error of U U^H reads about sqrt(2) delta. Without a basis U = I, G = W, R = 0.
        A projector built from a closed-form basis alone has G = I and R = 0 exactly
        (``_Basis``), so both are 0 before any array is formed. Their size min(1,
        ||W||_F) is 1 for a projector (||W||_F = sqrt(rank), W = U^H for one built
        from its basis alone).
        """
        size = 1.0 if self._rows is None else min(1.0, _frobenius(self._rows))
        if self._rows is None and self._basis.labels is not None:
            return 0.0, 0.0, size
        basis, rows = self._basis, self.range_rows
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan error fails the test
            gram, residual = rows, 0.0
            if basis is not _IDENTITY:
                gram = rows @ basis.matrix
                residual = _frobenius(rows - gram @ basis.adjoint)
            hermitian = math.hypot(_frobenius(gram - gram.conj().T), math.sqrt(2.0) * residual)
            return hermitian, _frobenius(gram @ rows - rows), size


@dataclass(frozen=True, eq=False, init=False)
class TwoParticleState:
    """Amplitudes over ordered pairs of single-particle modes, held as L K R^T.

    Flat index convention: amplitude(i, j) for slot-1 mode ``i`` and slot-2
    mode ``j`` is stored at ``i * total_dim + j`` (slot-1 major, the numpy
    row-major flattening of the coefficient matrix C). Every module in this
    package shares this one layout.

    The coefficient matrix is C = L K R^T. ``left`` is an n x a and
    ``right`` an n x b matrix with orthonormal columns, or None for the
    identity on that side alone (a = n or b = n): the columns of the
    ``_Basis`` that side holds, built on first read for a closed-form one.
    ``core`` is a x b. The constructor builds a dense state, with no basis
    on either side and the n x n ``core`` C; :meth:`from_factors` builds one
    with both. A measure gives each side of its result the range basis of
    that side's factor, if it has one. The package's algebra works on the
    factors. ``amplitudes`` and ``matrix()`` read the same values in every case: a
    state with a basis builds them on first read, at most at O(n^2 (a + b)),
    and keeps them. ``norm`` is the Frobenius norm of the core, formed by the
    check that passed it (a constructor's, or ``_computed``) and kept; the
    bases are isometries, so it is the state's norm.
    """

    space: SpaceSpec
    core: np.ndarray = field(repr=False)
    norm: float = field(repr=False)

    def __init__(self, space: SpaceSpec, amplitudes):
        _budget(space.pair_dim, "a dense pair array")
        amps, norm = _checked_copy(amplitudes, (space.pair_dim,), "amplitudes")
        dim = space.total_dim
        vars(self).update(space=space, _left=_IDENTITY, _right=_IDENTITY,
                          core=amps.reshape(dim, dim), _amplitudes=amps, norm=norm)

    @classmethod
    def from_factors(cls, space: SpaceSpec, left, core, right) -> TwoParticleState:
        """The factored state L K R^T; ``left`` and ``right`` need orthonormal columns.

        The factors are copied and checked: shapes, finiteness and
        orthonormality to ``ZERO_TOL``, at O(n (a^2 + b^2)).
        """
        dim = space.total_dim
        left, right = _Basis.checked(left, dim, "left"), _Basis.checked(right, dim, "right")
        core, norm = _checked_copy(core, (left.rank, right.rank), "core")
        return cls._fresh(space, core, left, right, norm=norm)

    @classmethod
    def _fresh(cls, space: SpaceSpec, core: np.ndarray, left: _Basis = _IDENTITY,
               right: _Basis = _IDENTITY, *, norm: float) -> TwoParticleState:
        """A state on ``core`` as it is, and the ``norm`` its check formed; it checks nothing.

        It wraps only values the package built: a checked copy, a computed
        core (``_computed``) or one of those reused.
        """
        state = cls.__new__(cls)
        vars(state).update(space=space, _left=left, _right=right, core=core,
                           _amplitudes=None, norm=norm)
        return state

    @property
    def left(self) -> np.ndarray | None:
        """L, read-only, or None for the identity."""
        return self._left.matrix

    @property
    def right(self) -> np.ndarray | None:
        """R, read-only, or None for the identity."""
        return self._right.matrix

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat slot-1-major amplitudes, read-only; built on first read if factored."""
        if self._amplitudes is None:
            _budget(self.space.pair_dim, "a dense pair array")
            amps = _in_bases(self, _IDENTITY, _IDENTITY).reshape(-1)
            amps.flags.writeable = False
            object.__setattr__(self, "_amplitudes", amps)
        return self._amplitudes

    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the total_dim x total_dim coefficient matrix.

        Row index is the slot-1 mode, column index the slot-2 mode. The view
        is read-only; copy before mutating.
        """
        dim = self.space.total_dim
        return self.amplitudes.reshape(dim, dim)

    def normalize(self) -> TwoParticleState:
        """Unit-norm copy, scaled by ``_unit_scale`` if need be; DegenerateInputError if zero."""
        core, norm = self.core, self.norm
        if norm == 0.0:
            raise DegenerateInputError("cannot normalize a zero state")
        if not sys.float_info.min <= norm < math.inf:  # subnormal or infinite: form it again
            core = core * _unit_scale(core)
            norm = _frobenius(core)
        return _computed(self.space, core / norm, self._left, self._right,
                         "the normalized state", "the state")


def _computed(space, core: np.ndarray, left, right, what: str,
              inputs: str = "the state or the measure") -> TwoParticleState:
    """The state on a core the package computed, frozen in place: the one check such a core passes.

    It wraps only values built here; arrays from outside go through
    ``_checked_copy``. It forms the core's norm once. From finite values only
    an overflow makes it non-finite, refused by DegenerateInputError naming
    ``what`` and the ``inputs``. ``TwoParticleState._fresh`` checks nothing:
    it relies on this check.
    """
    norm = _frobenius(core)
    if not norm < math.inf:
        raise DegenerateInputError(f"{what} overflows a double; rescale {inputs}")
    core.flags.writeable = False
    return TwoParticleState._fresh(space, core, left, right, norm=norm)


def _in_bases(state: TwoParticleState, left: _Basis, right: _Basis) -> np.ndarray:
    """left^H C conj(right): the state's coefficients in the product basis (left, right).

    ``_in_bases(state, _IDENTITY, _IDENTITY)`` is the dense coefficient
    matrix. Bases the state already uses cost nothing.
    """
    core = state.core
    rows = left.to(state._left)
    cols = right.to(state._right)
    if rows is not None:
        core = rows @ core
    if cols is not None:
        core = core @ cols.T
    return core


def basis_vector(extrinsic: int, spin: int, space: SpaceSpec) -> SingleParticleVector:
    """Single-particle basis ket for the given extrinsic and spin labels."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[mode_index(extrinsic, spin, space)] = 1.0
    return SingleParticleVector(space, amps)


def plane_wave(mode: int, spin: int, space: SpaceSpec) -> SingleParticleVector:
    """Unit-norm momentum ket on the periodic lattice, at a definite spin.

    Mode ``m`` carries wavenumber 2*pi*m/L over the L = extrinsic_dim sites:
    amplitude exp(2i*pi*m*x/L)/sqrt(L) at site x, zero at the other spins.
    The family over m = 0..L-1 is an orthonormal basis of the extrinsic
    factor, and mode L-m realizes "-k" for mode m. Labels must be integers,
    and L at most 2**1021 (DegenerateInputError beyond).
    """
    waves = _Basis.plane_waves(space, mode, range(space.spin_dim))
    return SingleParticleVector(space, waves.matrix[:, mode_index(0, spin, space)])


@np.errstate(over="ignore")  # an overflowing core is refused by name, with no warning
def tensor_state(u: SingleParticleVector, v: SingleParticleVector) -> TwoParticleState:
    """Product state with ``u`` in slot 1 and ``v`` in slot 2, held factored at O(n).

    The state is u/|u| [[|u| |v|]] (v/|v|)^T. Each norm is formed once, on
    the vector scaled by ``_unit_scale``; the scaled vector over it is a unit
    column (no :meth:`_Basis.checked`), and ldexp divides the powers out of
    the core in one rounding. The side of a zero ``u`` or ``v`` holds the
    unit ket of mode 0 instead, and the core is then [[0]].
    """
    if u.space != v.space:
        raise DimensionMismatchError("tensor_state factors live in different spaces")
    dim, product, shift, sides = u.space.total_dim, 1.0, 0, []
    for vector in (u, v):
        unit = _unit_scale(vector.amplitudes)
        scaled = vector.amplitudes * unit
        norm = _frobenius(scaled)
        product, shift = product * norm, shift + math.frexp(unit)[1] - 1  # log2 of the power
        if norm == 0.0:
            sides.append(_Basis(dim, (0,)))
            continue
        column = (scaled / norm).reshape(-1, 1)
        column.flags.writeable = False
        sides.append(_Basis(dim, _matrix=column))
    core = np.array([[np.ldexp(product, -shift)]], dtype=complex)
    return _computed(u.space, core, *sides, "the tensor product", "the vectors")


def inner_product(a: TwoParticleState, b: TwoParticleState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument.

    Computed on ``a``'s core, with ``b`` taken into ``a``'s bases.
    """
    if a.space != b.space:
        raise DimensionMismatchError("inner_product operands live in different spaces")
    return complex(np.vdot(a.core, _in_bases(b, a._left, a._right)))
