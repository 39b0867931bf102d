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
function, so everything here is safe to share across threads. Dense arrays
a value builds on first read and a pair state's norm are kept values
computed once from fixed data; two threads reading at once may both compute
one, with the same result. The module keeps no shared mutable state.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field

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
        if self.extrinsic_dim < 1:
            raise ValueError(f"extrinsic_dim must be >= 1, got {self.extrinsic_dim}")
        if self.spin_dim < 1:
            raise ValueError(f"spin_dim must be >= 1, got {self.spin_dim}")

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


def _unit_scale(largest: float) -> float:
    """The power of two that brings a finite ``largest`` > 0 into [1/2, 1), at most 2^1000; else 1."""
    return math.ldexp(1.0, min(-math.frexp(largest)[1], 1000))


def _frobenius(arr: np.ndarray) -> float:
    """Frobenius norm of a whole array: one BLAS dot, for arrays of any size.

    A dot whose squares may have under- or overflowed (zero, subnormal or
    infinite) is formed again on the array scaled exactly by ``_unit_scale``.
    """
    total = np.vdot(arr, arr).real
    if sys.float_info.min <= total < math.inf or not (total or np.count_nonzero(arr)):
        return math.sqrt(total)
    unit = _unit_scale(np.max(np.abs(arr)))
    scaled = arr if unit == 1.0 else arr * unit  # 1 only for entries that are not finite
    return math.sqrt(np.vdot(scaled, scaled).real) / unit


def _column_norm(arr: np.ndarray) -> float:
    """The largest column 2-norm of ``arr``, formed on magnitudes scaled by ``_unit_scale``."""
    mags = np.abs(arr)
    unit = _unit_scale(mags.max(initial=0.0))
    return float(((mags * unit) ** 2).sum(axis=0).max()) ** 0.5 / unit


def _freeze(arr: np.ndarray, what: str) -> float:
    """Check that every entry of ``arr`` is finite, make it read-only in place, return its norm."""
    # A finite norm (BLAS dots raise no floating-point warning) proves every entry finite.
    norm = _frobenius(arr)
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return norm


def _checked_copy(values, shape: tuple[int, ...], what: str) -> tuple[np.ndarray, float]:
    """A frozen complex copy of ``values``, refused unless of ``shape``, and its norm."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr, _freeze(arr, what)


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
    (``measurement._projector_errors``); ``row_norm`` is 1 for
    coordinates and 1/sqrt(L) for plane waves. Their dense ``matrix`` is
    built only when read. ``_IDENTITY`` is the side with no basis (U = I,
    ``matrix`` None). This type alone forms U^H and U^H V; it keeps neither.

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

    @property
    def row_norm(self) -> float | None:
        """The largest row 2-norm of a closed-form U, exactly; None for a dense one."""
        if self.labels is None:
            return None
        return 1.0 if self.sites is None else 1.0 / math.sqrt(self.sites)

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
    """Dense complex vector over the single-particle modes of ``space``."""

    space: SpaceSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _checked_copy(self.amplitudes, (self.space.total_dim,), "amplitudes")[0]
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return _frobenius(self.amplitudes)


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

    With ``entries=None`` the operator is the orthogonal projector U U^H:
    only the basis is checked (O(n r^2)) and ``range_rows`` is U^H. Its
    dense ``entries`` are built on first read, and so are ``range_basis``
    and ``range_rows`` of a closed-form basis (``_Basis``), which the
    measurement algebra reads in closed form instead.
    """

    space: SpaceSpec

    def __init__(self, space: SpaceSpec, entries, range_basis: np.ndarray | None = None):
        dim = space.total_dim
        norm = None
        if entries is not None:
            _budget(space.pair_dim, "a dense operator")
            entries, norm = _checked_copy(entries, (dim, dim), "entries")
        basis = _IDENTITY
        if range_basis is not None:
            basis = _Basis.checked(range_basis, dim, "range_basis")
        self._setup(space, entries, basis, norm)

    @classmethod
    def _fresh(cls, space: SpaceSpec, entries, basis: _Basis = _IDENTITY) -> OneParticleOperator:
        """Dense ``entries`` frozen in place, or the projector on ``basis``."""
        norm = None if entries is None else _freeze(entries, "entries")
        op = cls.__new__(cls)
        op._setup(space, entries, basis, norm)
        return op

    def _setup(self, space, entries, basis: _Basis, norm: float | None) -> None:
        # _rows: the range rows W = U^H entries, None for a projector built
        # from its basis alone (W = U^H, read off the basis). ``norm`` is the
        # Frobenius norm of ``entries`` that their finiteness check formed.
        rows = entries
        if basis is _IDENTITY:
            if entries is None:
                raise ValueError("an operator needs entries or a range_basis")
        elif entries is not None:
            rows = basis.adjoint @ entries
            residual = basis.matrix @ rows
            residual -= entries
            if not _negligible(_frobenius(residual), norm, ZERO_TOL):
                raise ValueError("range_basis does not span the range of entries")
            rows.flags.writeable = False
        vars(self).update(space=space, _entries=entries, _basis=basis, _rows=rows)

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
    and keeps them. ``norm`` is the Frobenius norm of the core: the dense
    constructor, :meth:`from_factors` and a core the package computes keep
    the one their finiteness check formed; a state on a core that was
    already checked is given it, or computes it on first read and keeps it.
    """

    space: SpaceSpec
    core: np.ndarray = field(repr=False)

    def __init__(self, space: SpaceSpec, amplitudes):
        _budget(space.pair_dim, "a dense pair array")
        amps, norm = _checked_copy(amplitudes, (space.pair_dim,), "amplitudes")
        dim = space.total_dim
        self._setup(space, _IDENTITY, amps.reshape(dim, dim), _IDENTITY, norm)
        object.__setattr__(self, "_amplitudes", amps)

    @classmethod
    def from_factors(cls, space: SpaceSpec, left, core, right) -> TwoParticleState:
        """The factored state L K R^T; ``left`` and ``right`` need orthonormal columns.

        The factors are copied and checked: shapes, finiteness and
        orthonormality to ``ZERO_TOL``, at O(n (a^2 + b^2)).
        """
        dim = space.total_dim
        left, right = _Basis.checked(left, dim, "left"), _Basis.checked(right, dim, "right")
        core, norm = _checked_copy(core, (left.rank, right.rank), "core")
        return cls._fresh(space, core, left, right, norm)

    @classmethod
    def _fresh(cls, space: SpaceSpec, core: np.ndarray, left: _Basis = _IDENTITY,
               right: _Basis = _IDENTITY, norm: float | None = None) -> TwoParticleState:
        """A state on a core computed here, checked and frozen in place, not copied.

        The check's Frobenius norm is the state's ``norm``, kept. A core that
        is already read-only has been checked, by an existing state or as a
        constant, and is taken as it is, with its Frobenius norm ``norm`` when
        the caller knows it.
        """
        if core.flags.writeable:
            norm = _freeze(core, "state")
        state = cls.__new__(cls)
        state._setup(space, left, core, right, norm)
        return state

    def _setup(self, space, left: _Basis, core, right: _Basis, norm=None) -> None:
        vars(self).update(
            space=space, _left=left, _right=right, core=core, _amplitudes=None, _norm=norm
        )

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

    @property
    def norm(self) -> float:
        """Euclidean norm, kept from the finiteness check or computed on first read."""
        if self._norm is None:
            # The bases are isometries, so the core carries the norm.
            object.__setattr__(self, "_norm", _frobenius(self.core))
        return self._norm

    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the total_dim x total_dim coefficient matrix.

        Row index is the slot-1 mode, column index the slot-2 mode. The view
        is read-only; copy before mutating.
        """
        dim = self.space.total_dim
        return self.amplitudes.reshape(dim, dim)

    def normalize(self) -> TwoParticleState:
        """Unit-norm copy, scaled by ``_unit_scale`` if need be; DegenerateInputError if zero."""
        nrm, core = self.norm, self.core
        if nrm == 0.0:
            raise DegenerateInputError("cannot normalize a zero state")
        if not sys.float_info.min <= nrm < math.inf:  # subnormal, or finite entries overflowed
            core = core * _unit_scale(np.max(np.abs(core)))
            nrm = _frobenius(core)
        return TwoParticleState._fresh(self.space, core / nrm, self._left, self._right)


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


def tensor_state(u: SingleParticleVector, v: SingleParticleVector) -> TwoParticleState:
    """Product state with ``u`` in slot 1 and ``v`` in slot 2, held factored at O(n).

    The state is u/|u| [[|u| |v|]] (v/|v|)^T. The side of a zero ``u`` or
    ``v`` holds the unit ket of mode 0 instead, and the core is then [[0]].
    """
    if u.space != v.space:
        raise DimensionMismatchError("tensor_state factors live in different spaces")
    u_norm, v_norm = u.norm, v.norm
    core = np.array([[u_norm * v_norm]], dtype=complex)
    return TwoParticleState._fresh(
        u.space, core, _unit_column(u, u_norm), _unit_column(v, v_norm)
    )


def _unit_column(vector: SingleParticleVector, norm: float) -> _Basis:
    """The one-column basis of ``vector`` / ``norm``, or of mode 0 for the zero vector.

    A unit column by construction, so it skips :meth:`_Basis.checked`.
    """
    if norm == 0.0:
        return _Basis(vector.space.total_dim, (0,))
    column = (vector.amplitudes / norm).reshape(-1, 1)
    column.flags.writeable = False
    return _Basis(vector.space.total_dim, _matrix=column)


def inner_product(a: TwoParticleState, b: TwoParticleState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument.

    Computed on ``a``'s core, with ``b`` taken into ``a``'s bases.
    """
    if a.space != b.space:
        raise DimensionMismatchError("inner_product operands live in different spaces")
    return complex(np.vdot(a.core, _in_bases(b, a._left, a._right)))
