"""Finite-dimensional building blocks for a pair of spin-carrying particles.

A single particle lives in a factored space: an extrinsic factor (lattice
sites, or equivalently momentum modes on a periodic lattice) times a spin
factor. The pair of particles lives in the tensor square of that space,
stored as a dense complex vector in slot-1-major order. Both particles are
treated as distinguishable at this level; the exchange structure is layered
on top by :mod:`pairmeasure.symmetry`.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InputTooLargeError

# Default tolerance for "is this zero" tests on O(1) desk-scale quantities.
ZERO_TOL = 1e-10

# A state flagged as normalized must have |norm - 1| below this.
NORM_TOL = 1e-12

# Largest dense pair array (pair_dim complex128 amplitudes) a space may ask
# for. Every pair state, event and post-state is stored densely and a single
# call holds several of them at once, so 256 MiB each keeps a call within a
# few GiB of a desk machine. It admits L = 2048 at spin 1/2 (n = 4096) and
# refuses larger spaces before anything is allocated.
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


def mode_split(flat: int, space: SpaceSpec) -> tuple[int, int]:
    """Inverse of :func:`mode_index`: flat index back to (extrinsic, spin)."""
    if not 0 <= flat < space.total_dim:
        raise IndexError(f"mode index {flat} out of range [0, {space.total_dim})")
    return divmod(flat, space.spin_dim)


def _frozen_complex(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


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


@dataclass(frozen=True)
class OneParticleOperator:
    """Dense complex matrix acting on the single-particle space.

    ``range_basis``, when given, is an n x r matrix U with orthonormal
    columns whose span contains the range of ``entries``; it lets the
    measurement algebra work on r coordinates instead of n. Construction
    checks U^H U = I entrywise to ``ZERO_TOL`` and U U^H entries = entries
    to ``ZERO_TOL`` relative in the Frobenius norm, at O(n^2 r) cost.
    ``range_rows`` is U^H entries, the operator's rows in that basis;
    without a basis U is the identity and ``range_rows`` is ``entries``.
    """

    space: SpaceSpec
    entries: np.ndarray
    range_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    range_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = self.space.total_dim
        entries = _frozen_complex(self.entries, (dim, dim), "entries")
        object.__setattr__(self, "entries", entries)
        if self.range_basis is None:
            object.__setattr__(self, "range_rows", entries)
            return
        shape = np.shape(self.range_basis)
        if len(shape) != 2 or shape[0] != dim or shape[1] > dim:
            raise DimensionMismatchError(
                f"range_basis has shape {shape}, expected ({dim}, r) with r <= {dim}"
            )
        basis = _frozen_complex(self.range_basis, shape, "range_basis")
        gram = basis.conj().T @ basis
        if np.max(np.abs(gram - np.eye(shape[1])), initial=0.0) >= ZERO_TOL:
            raise ValueError("range_basis columns are not orthonormal")
        rows = basis.conj().T @ entries
        residual = basis @ rows
        residual -= entries
        if np.linalg.norm(residual) > ZERO_TOL * np.linalg.norm(entries):
            raise ValueError("range_basis does not span the range of entries")
        rows.flags.writeable = False
        object.__setattr__(self, "range_basis", basis)
        object.__setattr__(self, "range_rows", rows)

    @classmethod
    def identity(cls, space: SpaceSpec) -> OneParticleOperator:
        return cls(space, np.eye(space.total_dim, dtype=complex))


@dataclass(frozen=True)
class TwoParticleState:
    """Dense amplitude vector over ordered pairs of single-particle modes.

    Flat index convention: amplitude(i, j) for slot-1 mode ``i`` and slot-2
    mode ``j`` is stored at ``i * total_dim + j`` (slot-1 major, the numpy
    row-major flattening of the coefficient matrix). Every module in this
    package shares this one layout.

    ``normalized=True`` is a caller promise that the vector has unit norm;
    it is checked against ``NORM_TOL`` at construction.
    """

    space: SpaceSpec
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        amps = _frozen_complex(self.amplitudes, (self.space.pair_dim,), "amplitudes")
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized and abs(np.linalg.norm(amps) - 1.0) >= NORM_TOL:
            raise ValueError("state flagged normalized but its norm is not 1")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the total_dim x total_dim coefficient matrix.

        Row index is the slot-1 mode, column index the slot-2 mode. The view
        is read-only; copy before mutating.
        """
        dim = self.space.total_dim
        return self.amplitudes.reshape(dim, dim)

    def normalize(self) -> TwoParticleState:
        """Unit-norm copy. Raises DegenerateInputError on a zero state."""
        nrm = self.norm
        if nrm == 0.0:
            raise DegenerateInputError("cannot normalize a zero state")
        return TwoParticleState(self.space, self.amplitudes / nrm, normalized=True)


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
    sites = space.extrinsic_dim
    if not 0 <= mode < sites:
        raise IndexError(f"momentum mode {mode} out of range [0, {sites})")
    if not 0 <= spin < space.spin_dim:
        raise IndexError(f"spin index {spin} out of range [0, {space.spin_dim})")
    amps = np.zeros(space.total_dim, dtype=complex)
    phases = np.exp(2j * np.pi * mode * np.arange(sites) / sites) / np.sqrt(sites)
    amps[spin:: space.spin_dim] = phases
    return SingleParticleVector(space, amps)


def tensor_state(u: SingleParticleVector, v: SingleParticleVector) -> TwoParticleState:
    """Product state with ``u`` in slot 1 and ``v`` in slot 2."""
    if u.space != v.space:
        raise DimensionMismatchError("tensor_state factors live in different spaces")
    amps = np.outer(u.amplitudes, v.amplitudes).reshape(-1)
    return TwoParticleState(u.space, amps)


def inner_product(a: TwoParticleState, b: TwoParticleState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise DimensionMismatchError("inner_product operands live in different spaces")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def momentum_representation(state: TwoParticleState) -> TwoParticleState:
    """Re-express a pair state in the plane-wave (momentum) basis.

    The extrinsic index of the result labels momentum modes instead of
    lattice sites; spin indices are untouched. Useful when momentum values
    rather than positions act as the particle labels.
    """
    space = state.space
    sites, spins = space.extrinsic_dim, space.spin_dim
    # Amplitude at site x picks up exp(-2i*pi*m*x/L)/sqrt(L) in each slot:
    # an orthonormal DFT over both extrinsic axes.
    blocks = state.matrix().reshape(sites, spins, sites, spins)
    coeff = np.fft.fft2(blocks, axes=(0, 2), norm="ortho")
    return TwoParticleState(space, coeff.reshape(-1))
