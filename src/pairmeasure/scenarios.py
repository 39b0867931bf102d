"""End-to-end worked setups on a periodic lattice with spin-1/2 particles.

Both scenarios start from the same symmetrized pair: one particle in
momentum mode ``m_a`` with spin up, the other in mode ``m_b`` with spin
down.

* Momentum projection selects exactly that mode assignment. The permuted
  event vanishes, so the measurement merely relabels the particles by their
  momenta: a local operation, probability 1/2, no entanglement gained.

* Position windows project each slot onto a window of lattice sites. With
  disjoint windows both events survive and are mutually exclusive, so the
  collapsed pair carries an opposite-spin superposition across the two
  regions: entanglement created by the measurement itself. For single-site
  windows at ``x_a`` and ``x_b`` the two amplitudes differ by exactly
  ``-+ exp(-i * dk * dx)`` (minus for fermions, plus for bosons), with
  ``dk`` the mode-wavenumber difference and ``dx`` the site separation; the
  scenario measures that ratio and checks it against the prediction.

Both build the reference factored, on one plane-wave column per side and
a unit core (``_reference_state``). The reference and the measures hold
their bases in closed form (``hilbert._Basis``), so every change of basis
is exact and a call allocates nothing that grows with the lattice size, up
to the plane waves' ceiling of 2**1021 sites. It does grow with the window:
with w = min(width, L), the event cores are (w * spins) x (w * spins) and
one SVD runs on them, so a call costs O((w * spins)^3), and the event-core
budget refuses widths past 2,048 sites at spin 1/2. Each call measures in
full.

With the momenta or the single sites standing in for particle tags, what
is left of the collapsed pair is a two-spin state, ``relabeled``: the
post-state's core in the measure's range bases.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .hilbert import ZERO_TOL, SpaceSpec, TwoParticleState, _Basis, _label
from .measurement import (
    PhaseCheck,
    ScenarioResult,
    SelectiveMeasure,
    VerdictTag,
    _pair_results,
    momentum_projector,
    window_projector,
)
from .symmetry import Statistics

SPIN_UP = 0
SPIN_DOWN = 1

_UNIT_CORE = np.ones((1, 1), dtype=complex)
_UNIT_CORE.flags.writeable = False


def _modes(space: SpaceSpec, m_a: int, m_b: int | None) -> tuple[int, int]:
    """The two integer modes; ``m_b`` None is the opposite momentum, mode L - m_a."""
    m_a = _label(m_a, "m_a")
    sites = space.extrinsic_dim
    return m_a, (sites - m_a) % sites if m_b is None else _label(m_b, "m_b")


def _reference_state(space: SpaceSpec, m_a: int, m_b: int) -> TwoParticleState:
    """|m_a up> x |m_b down> = u [[1]] v^T, on closed-form plane-wave columns.

    u and v are ``plane_wave(m_a, up)`` and ``plane_wave(m_b, down)``, held
    by their labels, and the norm of [[1]] is exactly 1.
    """
    if space.spin_dim < 2:
        raise ValueError("scenarios need a spin-1/2 factor (spin_dim >= 2)")
    up = _Basis.plane_waves(space, m_a, (SPIN_UP,))
    down = _Basis.plane_waves(space, m_b, (SPIN_DOWN,))
    return TwoParticleState._fresh(space, _UNIT_CORE, up, down, 1.0)


def _spin_state(normalized: TwoParticleState | None) -> TwoParticleState | None:
    """The collapsed pair's spin state, its two extrinsic labels as particle tags.

    The measure's labels are range bases: column s of a ``momentum_projector``
    factor is ``plane_wave(mode, s)``, and column s of a width-1
    ``window_projector`` is the coordinate ket (site, s). ``measure_pair``
    holds the post-state in those bases, C = U_A K U_B^T, so its spin block
    at the two labels is the spin_dim x spin_dim core K itself and its
    support off the labels is exactly zero; the normalized post-state's core
    is read as a state over one site. None for an impossible outcome.
    """
    if normalized is None:
        return None
    return TwoParticleState._fresh(SpaceSpec(1, normalized.space.spin_dim), normalized.core)


def scenario_momentum_projection(
    space: SpaceSpec,
    m_a: int,
    m_b: int | None,
    stat: Statistics,
    tol: float = ZERO_TOL,
) -> ScenarioResult:
    """Project both slots onto their own momentum modes.

    ``m_b`` defaults to the opposite momentum of ``m_a`` (lattice mode
    L - m_a), as in :func:`scenario_position_windows`. With distinct modes
    the permuted event vanishes and the verdict is LocalOperation: the
    collapsed pair is the direct event alone, at probability 1/2, and the
    momenta now serve as particle labels. The reference kets are columns of
    the projectors' range bases, so the relabeled spin state is the
    post-state's core (``_spin_state``).
    """
    m_a, m_b = _modes(space, m_a, m_b)
    if m_a == m_b:
        raise DegenerateInputError(
            "momentum projection needs distinct modes to label the particles"
        )
    ref = _reference_state(space, m_a, m_b)
    measure = momentum_projector(m_a, m_b, space)
    fields = _pair_results(measure, ref, stat, tol)
    return ScenarioResult(**fields, relabeled=_spin_state(fields["post_state_normalized"]))


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
    L - m_a). By the one rule of ``measure_pair``, disjoint windows give
    exclusive events, EntanglingMeasurement, and overlapping ones cannot
    distinguish the particles by position, NonOrthogonalEvents. The phase
    check runs on an EntanglingMeasurement with single-site windows, whose
    collapsed amplitudes are single lattice points. An impossible outcome
    has neither a phase check nor a relabeled state. Each event has norm w/L
    against a scale of 1, so once w/L <= ``tol`` the verdict is BothZero.
    """
    sites = space.extrinsic_dim
    m_a, m_b = _modes(space, m_a, m_b)
    ref = _reference_state(space, m_a, m_b)
    measure = SelectiveMeasure(
        window_projector(x_a, width, space), window_projector(x_b, width, space)
    )
    fields = _pair_results(measure, ref, stat, tol)
    phase_check = None
    relabeled = _spin_state(fields["post_state_normalized"]) if width == 1 else None
    if relabeled is not None and fields["verdict"].tag is VerdictTag.ENTANGLING_MEASUREMENT:
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
    return ScenarioResult(**fields, phase_check=phase_check, relabeled=relabeled)
