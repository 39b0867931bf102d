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
``_Basis``: read-only columns that passed the orthonormality check, with
the U^H and the Gram matrix U^H U that check formed. A checked basis also
keeps its projector's entry bound and largest row norm, so a measurement
reads them, and its one-column sub-bases once formed, views of those
arrays. ``_IDENTITY`` stands for a side without a basis. Changes of basis
U^H V are formed on demand by that type alone.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads. Dense arrays
a factored value builds on first read, a pair state's norm and a basis's
column views are kept values computed once from fixed data; two threads
reading at once may both compute one, with the same result. The one shared
mutable object is the lock-guarded table of checked, read-only bases kept
by ``_shared_basis``.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InputTooLargeError

# Default tolerance for "is this zero" tests on O(1) desk-scale quantities.
ZERO_TOL = 1e-10

# Largest dense pair array (pair_dim complex128 amplitudes) a space may ask
# for. States read from files or given as arrays are dense, and a call on
# them holds several such arrays at once, so 256 MiB each keeps a call
# within a few GiB of a desk machine. It admits L = 2048 at spin 1/2
# (n = 4096) and refuses larger spaces before anything is allocated.
MAX_PAIR_BYTES = 256 * 2**20

# Bytes of bases ``_shared_basis`` keeps, U and U^H of each. A momentum mode
# or a one-site window takes 256 KiB at L = 2048 (n x 2 twice), so 64 fit;
# every mode and site of L = 128 takes 4 MiB.
MAX_SHARED_BYTES = 16 * 2**20


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
        pair_bytes = self.pair_dim * np.dtype(complex).itemsize
        if pair_bytes > MAX_PAIR_BYTES:
            raise InputTooLargeError(
                f"a dense pair state on {self.extrinsic_dim} sites x {self.spin_dim} "
                f"spins needs {pair_bytes} bytes, above the {MAX_PAIR_BYTES}-byte budget"
            )

    @property
    def total_dim(self) -> int:
        """Dimension of the single-particle space."""
        return self.extrinsic_dim * self.spin_dim

    @property
    def pair_dim(self) -> int:
        """Dimension of the distinguishable two-particle space."""
        return self.total_dim ** 2


def mode_index(extrinsic: int, spin: int, space: SpaceSpec) -> int:
    """Flat single-particle mode index for (extrinsic, spin)."""
    extrinsic, spin = _label(extrinsic, "extrinsic index"), _label(spin, "spin index")
    if not 0 <= extrinsic < space.extrinsic_dim:
        raise IndexError(f"extrinsic index {extrinsic} out of range [0, {space.extrinsic_dim})")
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    return extrinsic * space.spin_dim + spin


def _negligible(value, scale, tol: float):
    """The package's one zero test: value < tol * scale, or scale == 0.

    Elementwise on arrays. Every zero, rank, antisymmetry, support and
    projector test goes through it, so ``tol`` means the same everywhere.
    A ``tol`` outside (0, 1) raises ValueError: from 1 up a value is
    negligible against a scale it reaches, such as a singular value against
    sigma_max or a sector norm against its state's norm.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be finite and positive and below 1, got {tol}")
    return (value < tol * scale) | (scale == 0.0)


def _frobenius(arr: np.ndarray) -> float:
    """Frobenius norm of a whole array: one BLAS dot, for arrays of any size."""
    return math.sqrt(np.vdot(arr, arr).real)


def _finite_norm(arr: np.ndarray, what: str) -> float:
    """The Frobenius norm of ``arr``, after checking that every entry is finite."""
    # A finite sum of squared moduli (one BLAS dot, which raises no
    # floating-point warning) proves every entry finite.
    norm = _frobenius(arr)
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return norm


def _freeze(arr: np.ndarray, what: str) -> np.ndarray:
    """Check that ``arr`` is finite, then make it read-only in place."""
    _finite_norm(arr, what)
    arr.flags.writeable = False
    return arr


def _complex_copy(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex copy of caller-supplied ``values``, refused unless it has ``shape``."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def _frozen_complex(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A checked, read-only complex copy of caller-supplied ``values``."""
    return _freeze(_complex_copy(values, shape, what), what)


@dataclass(frozen=True, eq=False, slots=True)
class _Basis:
    """A read-only n x r matrix U with orthonormal columns, U^H and U^H U.

    :meth:`checked` is the constructor that checks: shape, finiteness and
    U^H U = I entrywise to ``ZERO_TOL``, at O(n r^2). It keeps the
    conjugate of U it forms for that, as ``adjoint`` = U^H, a read-only
    transposed view laid out as ``matrix.conj().T``, so no measurement
    copies U again; the Gram matrix U^H U; and two numbers the projector
    U U^H needs on every measurement (:func:`_projector_values`, O(n r)):

    * ``projector_bound`` is ``measurement._projector_bound`` for
      P = U U^H, that is W = U^H: there G = W U is this Gram matrix,
      R = W - G U^H = (I - G) U^H and G W - W = (G - I) U^H. With
      e = ||G - I||_F, the columns of U^H have norm at most
      ||U||_2 <= sqrt(1 + e), so those of R and of (G - I) U^H at most
      e sqrt(1 + e), and the bound is ||G - G^H||_F + 2 e sqrt(1 + e).
    * ``row_norm`` is the largest row 2-norm of U: the largest column norm
      of U^H, and so of U U^H.

    The plain constructor takes parts of a basis already checked and keeps
    neither number. :meth:`column` keeps the one-column sub-bases, views
    that add no bytes. ``_IDENTITY`` is the side with no basis (U = I,
    ``matrix`` None). This type alone forms U^H and U^H V.
    """

    matrix: np.ndarray | None
    gram: np.ndarray | None
    adjoint: np.ndarray | None
    projector_bound: float | None = None
    row_norm: float | None = None
    _columns: tuple | None = field(default=None, repr=False)

    @classmethod
    def checked(cls, values, dim: int, what: str, copy: bool = True) -> _Basis:
        """The basis on a checked copy of ``values``.

        With ``copy=False``, ``values`` is a complex array just built here,
        checked and frozen in place.
        """
        shape = np.shape(values)
        if len(shape) != 2 or shape[0] != dim or shape[1] > dim:
            raise DimensionMismatchError(
                f"{what} has shape {shape}, expected ({dim}, r) with r <= {dim}"
            )
        matrix = _frozen_complex(values, shape, what) if copy else _freeze(values, what)
        conj = matrix.conj()
        conj.flags.writeable = False
        gram = conj.T @ matrix
        error = np.max(np.abs(gram - np.eye(shape[1])), initial=0.0)
        if not _negligible(error, 1.0, ZERO_TOL):
            raise ValueError(f"{what} columns are not orthonormal")
        gram.flags.writeable = False
        return cls(matrix, gram, conj.T, *_projector_values(matrix, gram))

    def column(self, index: int) -> _Basis:
        """Column ``index`` of U, with views of the checked U^H and U^H U; all kept."""
        if self._columns is None:
            split = tuple(
                _Basis(self.matrix[:, s:s + 1], self.gram[s:s + 1, s:s + 1], self.adjoint[s:s + 1])
                for s in range(self.matrix.shape[1])
            )
            object.__setattr__(self, "_columns", split)
        return self._columns[index]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays a checked basis keeps: U, U^H and U^H U."""
        return self.matrix.nbytes + self.adjoint.nbytes + self.gram.nbytes

    def to(self, other: _Basis) -> np.ndarray | None:
        """U^H V for ``other`` = V, mapping coefficients in V to U; None for one object."""
        if self is other:
            return None
        if self.matrix is None:
            return other.matrix
        return self.adjoint if other.matrix is None else self.adjoint @ other.matrix

    def restrict(self, rows: np.ndarray) -> np.ndarray:
        """rows U: an operator's rows on this basis's coordinates."""
        return rows if self.matrix is None else rows @ self.matrix


_IDENTITY = _Basis(None, None, None)


def _projector_values(matrix: np.ndarray, gram: np.ndarray) -> tuple[float, float]:
    """``_Basis.projector_bound`` and ``row_norm`` of U = ``matrix`` with Gram U^H U."""
    error = _frobenius(gram - np.eye(len(gram)))
    skew = _frobenius(gram - gram.conj().T)
    row_norm = float((np.abs(matrix) ** 2).sum(axis=1).max()) ** 0.5
    return skew + 2.0 * error * (1.0 + error) ** 0.5, row_norm


def _label(value, what: str) -> int:
    """``value`` as an int, or one TypeError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


_shared: dict = {}  # (build, space, labels) -> _Basis, least recently used first
_shared_bytes = 0
_shared_lock = threading.Lock()


def _shared_basis(build, space: SpaceSpec, *labels: int) -> _Basis:
    """The basis build(space, *labels), checked once and shared read-only.

    ``build`` makes a new complex n x r array from its arguments alone. The least
    recently used entries are evicted to keep ``MAX_SHARED_BYTES`` of ``_Basis.nbytes``; a
    basis larger than that is not kept.
    """
    global _shared_bytes
    key = (build, space, labels)
    with _shared_lock:
        basis = _shared.pop(key, None)
        if basis is None:
            basis = _Basis.checked(build(space, *labels), space.total_dim, "basis", copy=False)
            size = basis.nbytes
            if size > MAX_SHARED_BYTES:
                return basis
            _shared_bytes += size
        _shared[key] = basis
        while _shared_bytes > MAX_SHARED_BYTES:
            evicted = _shared.pop(next(iter(_shared)))
            _shared_bytes -= evicted.nbytes
    return basis


@dataclass(frozen=True)
class SingleParticleVector:
    """Dense complex vector over the single-particle modes of ``space``."""

    space: SpaceSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_complex(self.amplitudes, (self.space.total_dim,), "amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
    only the basis is checked (O(n r^2)), ``range_rows`` is U^H, the dense
    ``entries`` are built on first read, and the basis keeps what its check
    formed for the Born-rule flag and the zero-test scale (see
    ``measurement.is_projector_valued`` and ``measurement.measure_scale``).
    """

    space: SpaceSpec
    range_basis: np.ndarray | None = field(repr=False)
    range_rows: np.ndarray = field(repr=False)

    def __init__(self, space: SpaceSpec, entries, range_basis: np.ndarray | None = None):
        dim = space.total_dim
        if entries is not None:
            entries = _frozen_complex(entries, (dim, dim), "entries")
        basis = _IDENTITY
        if range_basis is not None:
            basis = _Basis.checked(range_basis, dim, "range_basis")
        self._setup(space, entries, basis)

    @classmethod
    def _fresh(cls, space: SpaceSpec, entries, basis: _Basis = _IDENTITY) -> OneParticleOperator:
        """Dense ``entries`` frozen in place, or a projector on a ``_shared_basis`` entry."""
        op = cls.__new__(cls)
        op._setup(space, None if entries is None else _freeze(entries, "entries"), basis)
        return op

    def _setup(self, space, entries, basis: _Basis) -> None:
        if basis is _IDENTITY:
            if entries is None:
                raise ValueError("an operator needs entries or a range_basis")
            rows = entries
        else:
            rows = basis.to(_IDENTITY)
            if entries is not None:
                rows = rows @ entries
                residual = basis.matrix @ rows
                residual -= entries
                if not _negligible(
                    np.linalg.norm(residual), np.linalg.norm(entries), ZERO_TOL
                ):
                    raise ValueError("range_basis does not span the range of entries")
                rows.flags.writeable = False
        # _gram: U^H U of a projector built from its basis alone, else None.
        vars(self).update(
            space=space, _entries=entries, _gram=None if entries is not None else basis.gram,
            _basis=basis, range_basis=basis.matrix, range_rows=rows,
        )

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, read-only; a projector builds it on first read."""
        if self._entries is None:
            # A projector's range rows are U^H.
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
    ``_Basis`` that side holds. ``core`` is a x b. The constructor builds a
    dense state, with no basis on either side and the n x n ``core`` C;
    :meth:`from_factors` builds one with both. A measure gives each side of
    its result the range basis of that side's factor, if it has one. The
    package's algebra works on the factors.
    ``amplitudes`` and ``matrix()`` read the same values in every case: a
    state with a basis builds them on first read, at most at O(n^2 (a + b)),
    and keeps them. ``norm`` is the Frobenius norm of the core: the dense
    constructor, :meth:`from_factors` and a core the package computes keep
    the one their finiteness check formed; a state on a core that was
    already checked is given it, or computes it on first read and keeps it.
    """

    space: SpaceSpec
    left: np.ndarray | None = field(repr=False)
    core: np.ndarray = field(repr=False)
    right: np.ndarray | None = field(repr=False)

    def __init__(self, space: SpaceSpec, amplitudes):
        amps = _complex_copy(amplitudes, (space.pair_dim,), "amplitudes")
        norm = _finite_norm(amps, "amplitudes")
        amps.flags.writeable = False
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
        core = _complex_copy(core, (left.matrix.shape[1], right.matrix.shape[1]), "core")
        norm = _finite_norm(core, "core")
        core.flags.writeable = False
        return cls._fresh(space, core, left, right, norm)

    @classmethod
    def _fresh(
        cls,
        space: SpaceSpec,
        core: np.ndarray,
        left: _Basis = _IDENTITY,
        right: _Basis = _IDENTITY,
        norm: float | None = None,
    ) -> TwoParticleState:
        """A state on a core computed here, checked and frozen in place, not copied.

        The check's Frobenius norm is the state's ``norm``, kept. A core that
        is already read-only has been checked, by an existing state or as a
        constant, and is taken as it is, with its Frobenius norm ``norm`` when
        the caller knows it.
        """
        if core.flags.writeable:
            norm = _finite_norm(core, "state")
            core.flags.writeable = False
        state = cls.__new__(cls)
        state._setup(space, left, core, right, norm)
        return state

    def _setup(self, space, left: _Basis, core, right: _Basis, norm=None) -> None:
        vars(self).update(
            space=space, _left=left, _right=right, left=left.matrix, core=core,
            right=right.matrix, _amplitudes=None, _norm=norm,
        )

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat slot-1-major amplitudes, read-only; built on first read if factored."""
        if self._amplitudes is None:
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
        """Unit-norm copy with the core rescaled; DegenerateInputError if zero."""
        nrm = self.norm
        if nrm == 0.0:
            raise DegenerateInputError("cannot normalize a zero state")
        return TwoParticleState._fresh(self.space, self.core / nrm, self._left, self._right)


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
    factor, and mode L-m realizes "-k" for mode m. The ket is column ``spin``
    of the mode's plane-wave basis, shared read-only per integer mode.
    """
    basis = _plane_waves(space, mode)
    spin = _label(spin, "spin index")
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    return SingleParticleVector(space, basis.matrix[:, spin])


def _plane_waves(space: SpaceSpec, mode: int) -> _Basis:
    """The basis whose column s is the plane wave of integer ``mode`` at spin s, shared."""
    return _shared_basis(_plane_wave_basis, space, _label(mode, "momentum mode"))


def _plane_wave_basis(space: SpaceSpec, mode: int) -> np.ndarray:
    spins = space.spin_dim
    phases = _plane_wave_phases(mode, space.extrinsic_dim)
    basis = np.zeros((space.total_dim, spins), dtype=complex)
    for spin in range(spins):
        basis[spin::spins, spin] = phases
    return basis


def _plane_wave_phases(mode: int, sites: int) -> np.ndarray:
    """exp(2i*pi*mode*x/L)/sqrt(L) over the L sites x: one plane wave's amplitudes."""
    if not 0 <= mode < sites:
        raise IndexError(f"momentum mode {mode} out of range [0, {sites})")
    # Reducing m*x mod L in integers keeps the phase error O(eps), not O(m*x*eps).
    angles = 2 * np.pi * (mode * np.arange(sites) % sites) / sites
    phases = np.empty(sites, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    phases /= np.sqrt(sites)
    return phases


def tensor_state(u: SingleParticleVector, v: SingleParticleVector) -> TwoParticleState:
    """Product state with ``u`` in slot 1 and ``v`` in slot 2."""
    if u.space != v.space:
        raise DimensionMismatchError("tensor_state factors live in different spaces")
    return TwoParticleState._fresh(u.space, np.outer(u.amplitudes, v.amplitudes))


def inner_product(a: TwoParticleState, b: TwoParticleState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument.

    Computed on ``a``'s core, with ``b`` taken into ``a``'s bases.
    """
    if a.space != b.space:
        raise DimensionMismatchError("inner_product operands live in different spaces")
    return complex(np.vdot(a.core, _in_bases(b, a._left, a._right)))

