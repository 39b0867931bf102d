"""Finite-dimensional building blocks for a pair of spin-carrying particles.

A single particle lives in a factored space: an extrinsic factor (lattice
sites, or equivalently momentum modes on a periodic lattice) times a spin
factor. The pair of particles lives in the tensor square of that space; a
pair state is its coefficient matrix L K R^T, where each side's basis is
either a small orthonormal one or absent, meaning the identity on that side
(see ``TwoParticleState``). Both particles are treated as distinguishable at
this level; the exchange structure is layered on top by
:mod:`pairmeasure.symmetry`.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads. Dense arrays
a factored value builds on first read, and a pair state's norm, are kept
values computed once from fixed data; two threads reading at once may both
compute one, with the same result.
"""

from __future__ import annotations

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
    if not 0 <= extrinsic < space.extrinsic_dim:
        raise IndexError(f"extrinsic index {extrinsic} out of range [0, {space.extrinsic_dim})")
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    return extrinsic * space.spin_dim + spin


def _negligible(value, scale, tol: float):
    """The package's one zero test: value < tol * scale, or scale == 0.

    Elementwise on arrays. Every zero, rank, antisymmetry, support and
    projector test goes through it, so ``tol`` means the same everywhere;
    a ``tol`` that is not finite and positive raises ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return (value < tol * scale) | (scale == 0.0)


def _freeze(arr: np.ndarray, what: str) -> np.ndarray:
    """Check that ``arr`` is finite, then make it read-only in place."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _frozen_complex(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A checked, read-only complex copy of caller-supplied ``values``."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    return _freeze(arr, what)


def _orthonormal_basis(values, dim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """A checked, read-only copy U of an n x r matrix with orthonormal columns.

    Returns U and its r x r Gram matrix U^H U, which the check forms.
    """
    shape = np.shape(values)
    if len(shape) != 2 or shape[0] != dim or shape[1] > dim:
        raise DimensionMismatchError(
            f"{what} has shape {shape}, expected ({dim}, r) with r <= {dim}"
        )
    basis = _frozen_complex(values, shape, what)
    gram = basis.conj().T @ basis
    error = np.max(np.abs(gram - np.eye(shape[1])), initial=0.0)
    if not _negligible(error, 1.0, ZERO_TOL):
        raise ValueError(f"{what} columns are not orthonormal")
    return basis, gram


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
    ``entries`` are built on first read, and the check's Gram matrix U^H U
    is kept to decide the Born-rule flag (see
    ``measurement.is_projector_valued``).
    """

    space: SpaceSpec
    range_basis: np.ndarray | None = field(repr=False)
    range_rows: np.ndarray = field(repr=False)

    def __init__(
        self, space: SpaceSpec, entries, range_basis: np.ndarray | None = None
    ):
        dim = space.total_dim
        if entries is not None:
            entries = _frozen_complex(entries, (dim, dim), "entries")
        self._setup(space, entries, range_basis)

    @classmethod
    def _fresh(cls, space: SpaceSpec, entries: np.ndarray) -> OneParticleOperator:
        """A dense operator on an n x n array just computed here, frozen in place."""
        op = cls.__new__(cls)
        op._setup(space, _freeze(entries, "entries"), None)
        return op

    def _setup(self, space, entries, range_basis) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_entries", entries)
        # U^H U of a projector built from its basis alone, else None.
        object.__setattr__(self, "_gram", None)
        if range_basis is None:
            if entries is None:
                raise ValueError("an operator needs entries or a range_basis")
            rows = entries
        else:
            basis, gram = _orthonormal_basis(range_basis, space.total_dim, "range_basis")
            if entries is None:
                rows = basis.conj().T
                object.__setattr__(self, "_gram", gram)
            else:
                rows = basis.conj().T @ entries
                residual = basis @ rows
                residual -= entries
                if not _negligible(
                    np.linalg.norm(residual), np.linalg.norm(entries), ZERO_TOL
                ):
                    raise ValueError("range_basis does not span the range of entries")
            rows.flags.writeable = False
            range_basis = basis
        object.__setattr__(self, "range_basis", range_basis)
        object.__setattr__(self, "range_rows", rows)

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, read-only; a projector builds it on first read."""
        if self._entries is None:
            entries = self.range_basis @ self.range_basis.conj().T
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
    identity on that side alone (a = n or b = n); ``core`` is a x b. The
    constructor builds a dense state, with no basis on either side and the
    n x n ``core`` C; :meth:`from_factors` builds one with both. A measure
    gives each side of its result the range basis of that side's factor,
    if it has one. The package's algebra works on the factors.
    ``amplitudes`` and ``matrix()`` read the same values in every case: a
    state with a basis builds them on first read, at most at O(n^2 (a + b)),
    and keeps them. ``norm`` is likewise computed on first read and kept.
    """

    space: SpaceSpec
    left: np.ndarray | None = field(repr=False)
    core: np.ndarray = field(repr=False)
    right: np.ndarray | None = field(repr=False)

    def __init__(self, space: SpaceSpec, amplitudes):
        amps = _frozen_complex(amplitudes, (space.pair_dim,), "amplitudes")
        dim = space.total_dim
        self._setup(space, None, amps.reshape(dim, dim), None)
        object.__setattr__(self, "_amplitudes", amps)

    @classmethod
    def from_factors(cls, space: SpaceSpec, left, core, right) -> TwoParticleState:
        """The factored state L K R^T; ``left`` and ``right`` need orthonormal columns.

        The factors are copied and checked: shapes, finiteness and
        orthonormality to ``ZERO_TOL``, at O(n (a^2 + b^2)).
        """
        dim = space.total_dim
        left, _ = _orthonormal_basis(left, dim, "left")
        right, _ = _orthonormal_basis(right, dim, "right")
        core = _frozen_complex(core, (left.shape[1], right.shape[1]), "core")
        return cls._fresh(space, core, left, right)

    @classmethod
    def _fresh(
        cls,
        space: SpaceSpec,
        core: np.ndarray,
        left: np.ndarray | None = None,
        right: np.ndarray | None = None,
    ) -> TwoParticleState:
        """A state on arrays computed here, checked and frozen in place, not copied.

        ``left`` and ``right`` are each None (the identity on that side) or an
        orthonormal basis. A part that is already read-only belongs to an
        existing state or operator, so it has been checked and is taken as it
        is.
        """
        for part in (left, core, right):
            if part is not None and part.flags.writeable:
                _freeze(part, "state")
        state = cls.__new__(cls)
        state._setup(space, left, core, right)
        return state

    def _setup(self, space, left, core, right) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_amplitudes", None)
        object.__setattr__(self, "_norm", None)

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat slot-1-major amplitudes, read-only; built on first read if factored."""
        if self._amplitudes is None:
            amps = _in_bases(self, None, None).reshape(-1)
            amps.flags.writeable = False
            object.__setattr__(self, "_amplitudes", amps)
        return self._amplitudes

    @property
    def norm(self) -> float:
        """Euclidean norm, computed on first read and kept."""
        if self._norm is None:
            # The bases are isometries, so the core carries the norm.
            object.__setattr__(self, "_norm", float(np.linalg.norm(self.core)))
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
        return TwoParticleState._fresh(self.space, self.core / nrm, self.left, self.right)


def _change_of_basis(to: np.ndarray | None, frm: np.ndarray | None) -> np.ndarray | None:
    """to^H frm, which maps coefficients in ``frm`` to ``to``; None is the identity."""
    if to is frm:
        return None
    if to is None:
        return frm
    if frm is None:
        return to.conj().T
    return to.conj().T @ frm


def _in_bases(
    state: TwoParticleState, left: np.ndarray | None, right: np.ndarray | None
) -> np.ndarray:
    """left^H C conj(right): the state's coefficients in the product basis (left, right).

    None is the identity basis, so ``_in_bases(state, None, None)`` is the
    dense coefficient matrix. Bases the state already uses cost nothing.
    """
    core = state.core
    rows = _change_of_basis(left, state.left)
    cols = _change_of_basis(right, state.right)
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
    factor, and mode L-m realizes "-k" for mode m.
    """
    phases = _plane_wave_phases(mode, space.extrinsic_dim)
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[spin:: space.spin_dim] = phases
    return SingleParticleVector(space, amps)


def _plane_wave_phases(mode: int, sites: int) -> np.ndarray:
    """exp(2i*pi*mode*x/L)/sqrt(L) over the L sites x: one plane wave's amplitudes."""
    if not 0 <= mode < sites:
        raise IndexError(f"momentum mode {mode} out of range [0, {sites})")
    # Reducing m*x mod L in integers keeps the phase error O(eps), not O(m*x*eps).
    turns = mode * np.arange(sites) % sites
    return np.exp(2j * np.pi * turns / sites) / np.sqrt(sites)


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
    return complex(np.vdot(a.core, _in_bases(b, a.left, a.right)))


def momentum_representation(state: TwoParticleState) -> TwoParticleState:
    """Re-express a pair state in the plane-wave (momentum) basis.

    The extrinsic index of the result labels momentum modes instead of
    lattice sites; spin indices are untouched. Useful when momentum values
    rather than positions act as the particle labels. Each side transforms
    its basis columns if it has a basis, and the core's axis on that side
    if not; a state with both bases keeps its core.
    """
    space = state.space
    sites, spins = space.extrinsic_dim, space.spin_dim

    def dft(modes: np.ndarray) -> np.ndarray:
        # Amplitude at site x picks up exp(-2i*pi*m*x/L)/sqrt(L): an
        # orthonormal DFT over the extrinsic part of the row index.
        coeff = np.fft.fft(modes.reshape(sites, spins, -1), axis=0, norm="ortho")
        return coeff.reshape(space.total_dim, -1)

    left, core, right = state.left, state.core, state.right
    if left is None:
        core = dft(core)
    else:
        left = dft(left)
    if right is None:
        core = dft(core.T).T
    else:
        right = dft(right)
    return TwoParticleState._fresh(space, core, left, right)
