"""End-to-end worked setups on a periodic lattice with spin-1/2 particles.

Both scenarios start from the same symmetrized pair: one particle in
momentum mode ``m_a`` with spin up, the other in mode ``m_b`` with spin
down.

* Momentum projection selects exactly that mode assignment. The permuted
  event vanishes, so the measurement merely relabels the particles by their
  momenta: a local operation, probability 1/2, no entanglement gained.

* Position windows project each slot onto a window of lattice sites. With
  disjoint windows both events survive and stay orthogonal, so the
  collapsed pair carries an opposite-spin superposition across the two
  regions: entanglement created by the measurement itself. For single-site
  windows at ``x_a`` and ``x_b`` the two amplitudes differ by exactly
  ``-+ exp(-i * dk * dx)`` (minus for fermions, plus for bosons), with
  ``dk`` the mode-wavenumber difference and ``dx`` the site separation; the
  scenario measures that ratio and checks it against the prediction.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateInputError
from .hilbert import (
    ZERO_TOL,
    SpaceSpec,
    TwoParticleState,
    _negligible,
    momentum_representation,
    plane_wave,
)
from .measurement import (
    PhaseCheck,
    ScenarioResult,
    SelectiveMeasure,
    Verdict,
    VerdictTag,
    measure_pair,
    momentum_projector,
    window_projector,
    window_sites,
)
from .symmetry import Statistics

SPIN_UP = 0
SPIN_DOWN = 1


def _require_spin_half(space: SpaceSpec) -> None:
    if space.spin_dim < 2:
        raise ValueError("scenarios need a spin-1/2 factor (spin_dim >= 2)")


def _reference_state(u: np.ndarray, v: np.ndarray, space: SpaceSpec) -> TwoParticleState:
    """|m_a up> x |m_b down> from the kets u, v: (u/|u|) (|u| |v|) (v/|v|)^T."""
    norm_u, norm_v = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    return TwoParticleState.from_factors(
        space, (u / norm_u)[:, None], [[norm_u * norm_v]], (v / norm_v)[:, None]
    )


def scenario_momentum_projection(
    space: SpaceSpec,
    m_a: int,
    m_b: int,
    stat: Statistics,
    tol: float = ZERO_TOL,
) -> ScenarioResult:
    """Project both slots onto their own momentum modes.

    With distinct modes the permuted event vanishes and the verdict is
    LocalOperation: the collapsed pair is the direct event alone, at
    probability 1/2, and the momenta now serve as particle labels. The
    relabeled spin state is read off in the momentum basis. The reference
    kets are columns of the projectors' range bases.
    """
    if m_a == m_b:
        raise DegenerateInputError(
            "momentum projection needs distinct modes to label the particles"
        )
    _require_spin_half(space)
    measure = momentum_projector(m_a, m_b, space)
    ref = _reference_state(
        measure.factor_slot1.range_basis[:, SPIN_UP],
        measure.factor_slot2.range_basis[:, SPIN_DOWN],
        space,
    )
    result = measure_pair(measure, ref, stat, tol)
    relabeled = relabel_distinguishable(
        momentum_representation(result.post_state), (m_a, m_b), tol
    )
    return replace(result, relabeled=relabeled)


def scenario_position_windows(
    space: SpaceSpec,
    m_a: int,
    m_b: int | None,
    x_a: int,
    x_b: int,
    width: int,
    stat: Statistics,
    tol: float = ZERO_TOL,
) -> ScenarioResult:
    """Project slot 1 onto a window at ``x_a`` and slot 2 onto one at ``x_b``.

    ``m_b`` defaults to the opposite momentum of ``m_a`` (lattice mode
    L - m_a). Disjoint windows yield EntanglingMeasurement; overlapping
    windows cannot distinguish the particles by position, so the verdict is
    reported as NonOrthogonalEvents and no phase check is attempted. The
    phase check also needs single-site windows, where the two collapsed
    amplitudes are single lattice points. An impossible outcome has neither
    a phase check nor a relabeled state.
    """
    sites = space.extrinsic_dim
    if m_b is None:
        m_b = (sites - m_a) % sites
    _require_spin_half(space)
    ref = _reference_state(
        plane_wave(m_a, SPIN_UP, space).amplitudes,
        plane_wave(m_b, SPIN_DOWN, space).amplitudes,
        space,
    )
    measure = SelectiveMeasure(
        window_projector(x_a, width, space), window_projector(x_b, width, space)
    )
    disjoint = not set(window_sites(x_a, width, sites)) & set(
        window_sites(x_b, width, sites)
    )
    result = measure_pair(measure, ref, stat, tol)
    if not disjoint:
        # Overlapping windows leave the position labels non-exclusive, so the
        # local-operation criterion does not apply whatever the raw overlap is.
        result = replace(result, verdict=Verdict(VerdictTag.NON_ORTHOGONAL_EVENTS, tol))

    phase_check = None
    relabeled = None
    if width == 1 and result.post_state_normalized is not None:
        relabeled = relabel_distinguishable(result.post_state, (x_a, x_b), tol)
        if disjoint:
            spins = relabeled.matrix()
            measured = complex(spins[SPIN_DOWN, SPIN_UP] / spins[SPIN_UP, SPIN_DOWN])
            # dk * dx = 2*pi*(m_b - m_a)*(x_b - x_a)/L, reduced mod 2*pi exactly.
            turns = ((m_b - m_a) * (x_b - x_a)) % sites
            predicted = complex(stat.sign * np.exp(-2j * np.pi * turns / sites))
            phase_check = PhaseCheck(
                measured=measured,
                predicted=predicted,
                deviation=float(abs(measured - predicted)),
            )
    return replace(result, phase_check=phase_check, relabeled=relabeled)


def relabel_distinguishable(
    post_state: TwoParticleState,
    labels: tuple[int, int],
    tol: float = ZERO_TOL,
) -> TwoParticleState:
    """Read the pair as two labeled particles and keep only their spins.

    ``labels`` gives the extrinsic value acting as the tag of each slot.
    The state must be supported on slot-1 modes at the first label and
    slot-2 modes at the second, to ``tol`` relative; otherwise, as for a
    zero state, DegenerateInputError is raised. The spin-by-spin amplitude
    block is extracted and normalized into a state over a spin-only space.
    A factored state is read through row slices of its bases, at O(n r);
    a state without a left basis, a dense one included, through a copy of
    its core.
    """
    space = post_state.space
    label_1, label_2 = labels
    for label in (label_1, label_2):
        if not 0 <= label < space.extrinsic_dim:
            raise IndexError(
                f"extrinsic label {label} out of range [0, {space.extrinsic_dim})"
            )
    if post_state.norm == 0.0:
        raise DegenerateInputError("cannot relabel a zero state")
    spins = space.spin_dim
    rows = slice(label_1 * spins, (label_1 + 1) * spins)
    cols = slice(label_2 * spins, (label_2 + 1) * spins)
    # C = (L K) R^T, with L = R = I for a dense state. Its rows at label_1 are
    # band R^T; the block sits in them at label_2. The remainder is the rest
    # of that band plus the other rows, read as arrays made here with the
    # label entries zeroed, so each norm is taken directly.
    right = post_state.right
    if post_state.left is None:
        half = post_state.core.copy()
    else:
        half = post_state.left @ post_state.core
    band = half[rows]
    if right is None:
        block, off_band = band[:, cols].copy(), band.copy()
    else:
        block, off_band = band @ right[cols].T, band @ right.T
    off_band[:, cols] = 0.0
    half[rows] = 0.0
    remainder = np.hypot(np.linalg.norm(off_band), np.linalg.norm(half))
    if not _negligible(remainder, post_state.norm, tol):
        raise DegenerateInputError(
            f"state has support outside extrinsic labels {labels} above tol * norm "
            f"(tol = {tol:g}); relabeling by those values is not faithful"
        )
    spin_space = SpaceSpec(extrinsic_dim=1, spin_dim=spins)
    return TwoParticleState(spin_space, block.reshape(-1)).normalize()
