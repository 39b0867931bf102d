"""Selective measurements on the pair and their local-operation test.

A selective measure is an unsymmetrized tensor product of two one-particle
operators, one per slot. Because it is not symmetrized it does not commute
with the slot permutation, and applying it to a symmetrized pair state
splits into two events: the measure acting on the distinguishable reference
state, and the measure acting on its permutation.

``VerdictTag`` states the classification rule. The paper's abstract
places entanglement by measurement "when the operator M_m has two-particle
events that are not mutually exclusive". Here "exclusive" is a property of
the measure, A^H B = 0; "both nonzero" is the other sense, both slot
assignments occurring on the state. The ``entangled_by_measure`` field of
``EbmEvidence`` compares slot Schmidt ranks, not Slater ranks: on
``position-scenario --xa 2 --xb 2 --width 1`` the verdict is
NonOrthogonalEvents, the post-state has Schmidt rank 2 and Slater rank 1
(one determinant), and the flag is True (rank 1 -> 2).

Every zero test is ``hilbert._negligible``, at most ``tol * scale``, so a
zero is negligible against every scale: an event norm against scale = the
product of the factors' max column norms times the reference-state norm,
||A^H B||_F against that product alone. Verdicts are therefore invariant
under global phases and positive rescaling of either the state or the
measure while the events neither underflow to zero nor overflow, and
overflow is refused (DegenerateInputError). The event overlap on the state
is reported but does not decide the verdict. The same ``tol`` sizes the
rank and antisymmetry tests of the Schmidt report (see
:mod:`pairmeasure.entanglement`). The Born-rule flag has one rule for every
factor A = U W: ||A - A^H||_F and ||A A - A||_F, formed by the factor in
range coordinates, at most tol * min(1, ||W||_F) (:func:`is_projector_valued`).

:func:`measure_pair` is the one place that goes from the two events to
results, and :class:`ScenarioResult` the one result type; :func:`classify`
needs no sector and runs the verdict rule alone.

Every event lies in range(A) x range(B) of the factors A and B. With range
bases U_A, U_B (see ``OneParticleOperator.range_basis``) an event is
U_A K U_B^T for an r_A x r_B core K, and since the bases are isometries the
norms, overlaps and singular values of the cores are those of the events.
The algebra therefore runs on the cores, and an event or post-state is kept
as the state (U_A, K, U_B), whose dense amplitudes are built only when
read. On a dense reference state this costs O(n^2 r) instead of O(n^3); on
a factored one, L K R^T with a + b basis columns, O(n r (a + b)). A factor
without a basis is the case U = I, r = n on its own side, which is plain
dense algebra there whatever the other side has.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entanglement import EbmEvidence, EntanglementReport, _rank, _report
from .errors import DegenerateInputError, DimensionMismatchError
from .hilbert import (
    ZERO_TOL,
    OneParticleOperator,
    SpaceSpec,
    TwoParticleState,
    _Basis,
    _budget,
    _computed,
    _label,
    _negligible,
    inner_product,
)
from .symmetry import _INV_SQRT2, Statistics, _exchange_norm, permute


@dataclass(frozen=True)
class SelectiveMeasure:
    """Tensor product of one operator per slot, never symmetrized."""

    factor_slot1: OneParticleOperator
    factor_slot2: OneParticleOperator

    def __post_init__(self):
        if self.factor_slot1.space != self.factor_slot2.space:
            raise DimensionMismatchError("measure factors live in different spaces")

    @property
    def space(self) -> SpaceSpec:
        return self.factor_slot1.space


@dataclass(frozen=True)
class EventPair:
    """The two event vectors of a selective measurement and their overlaps.

    ``event_direct`` is the measure applied to the reference state,
    ``event_permuted`` the measure applied to the permuted reference state.
    ``event_overlap`` is the inner product of the two events themselves;
    ``ref_overlap`` is the inner product of the reference state with the
    permuted event. The two coincide for projector-valued measures but can
    differ for general operators, so both are kept (see :func:`events`).
    Both events are held in the same bases, those of the measure's
    factors (the identity on a side whose factor has none), so their
    r_A x r_B cores are directly comparable and carry their norms and
    overlap: ``event_overlap`` needs no change of basis.
    """

    event_direct: TwoParticleState
    event_permuted: TwoParticleState
    norm_direct: float
    norm_permuted: float
    event_overlap: complex
    ref_overlap: complex


class VerdictTag(Enum):
    """The classification rule, with A and B the factors of slots 1 and 2.

    * ``BOTH_ZERO`` ("BothZero"): both events are (numerically) zero.
    * ``LOCAL_OPERATION`` ("LocalOperation"): exactly one is zero; the
      measurement distinguishes the particles without creating entanglement.
    * ``ENTANGLING_MEASUREMENT`` ("EntanglingMeasurement"): both are nonzero
      and A^H B is zero. range(A) and range(B) are orthogonal, so the events
      A x B and B x A are mutually exclusive on every state, and the
      collapsed symmetrized state keeps both as a coherent superposition.
    * ``NON_ORTHOGONAL_EVENTS`` ("NonOrthogonalEvents"): both are nonzero
      and A^H B is not zero.
    """

    BOTH_ZERO = "BothZero"
    LOCAL_OPERATION = "LocalOperation"
    ENTANGLING_MEASUREMENT = "EntanglingMeasurement"
    NON_ORTHOGONAL_EVENTS = "NonOrthogonalEvents"


@dataclass(frozen=True)
class Verdict:
    """A classification: its ``tag`` and the relative ``tolerance_used`` by its zero tests."""

    tag: VerdictTag
    tolerance_used: float


@dataclass(frozen=True)
class PhaseCheck:
    """Measured vs predicted relative amplitude between the two events.

    ``measured`` is the complex ratio of the spin-swapped amplitude over the
    direct one in the collapsed state; it must lie on the unit circle.
    """

    measured: complex
    predicted: complex
    deviation: float

    def __post_init__(self):
        if not _negligible(abs(abs(self.measured) - 1.0), 1.0, ZERO_TOL):
            raise ValueError(
                f"measured relative amplitude is off the unit circle: {self.measured}"
            )


@dataclass(frozen=True)
class ScenarioResult:
    """Everything :func:`measure_pair` derives from the two events.

    ``post_state`` keeps the un-renormalized collapsed vector (the sector
    prefactor 1/sqrt(2) survives in it). ``report`` and ``evidence`` are
    None when the outcome is impossible, ``evidence`` also when the direct
    event is zero. ``born_rule`` tells whether ``probability`` is a
    Born-rule probability; ``scale`` sizes the verdict's zero tests. The
    scenarios add ``phase_check`` and ``relabeled``, the two-spin state left
    after using their pair of extrinsic labels as particle tags.
    """

    verdict: Verdict
    probability: float
    post_state: TwoParticleState
    post_state_normalized: TwoParticleState | None
    report: EntanglementReport | None
    evidence: EbmEvidence | None
    event_pair: EventPair
    born_rule: bool
    scale: float
    phase_check: PhaseCheck | None = None
    relabeled: TwoParticleState | None = None


@np.errstate(over="ignore", invalid="ignore")  # half the cost of a with-statement
def apply_measure(measure: SelectiveMeasure, state: TwoParticleState) -> TwoParticleState:
    """Apply the tensor-product measure: one factor per slot.

    On C = L K R^T it computes the core (W_A L) K (W_B R)^T with W = U^H A,
    at O(n r a), and returns the state (U_A, core, U_B). Each side uses its
    own factor's range basis, or the identity where that factor has none;
    a side of ``state`` without a basis takes L or R as the identity. For a
    projector built from its basis alone W L = U^H L is a change of basis,
    exact and O(r a) between closed-form bases (``hilbert._Basis.to``).
    A core that overflows a double raises DegenerateInputError, with no
    numpy warning before it.
    """
    if measure.space != state.space:
        raise DimensionMismatchError("measure and state live in different spaces")
    slot1, slot2 = measure.factor_slot1, measure.factor_slot2
    left, right = slot1._on(state._left), slot2._on(state._right)
    _budget(len(left) * len(right), "an event core")
    core = left @ state.core @ right.T
    return _computed(measure.space, core, slot1._basis, slot2._basis, "an event")


def measure_scale(measure: SelectiveMeasure) -> float:
    """Max-column-norm estimate of the tensor operator's size.

    Columns of a Kronecker product factorize, so its largest column 2-norm
    is the product of the factors' largest column 2-norms. Each factor forms
    its own once, when it is built (``OneParticleOperator``), on range rows
    scaled by ``hilbert._unit_scale``, or exactly for a projector on a
    closed-form basis alone.
    """
    return measure.factor_slot1._size * measure.factor_slot2._size


def events(measure: SelectiveMeasure, ref_state: TwoParticleState) -> EventPair:
    """Compute both events of the measure on a distinguishable reference state.

    ``event_overlap`` is ``inner_product(direct, permuted)``, the vdot of the
    two cores. For two projectors built from their bases alone, W = U^H on
    both sides, the direct core is U_A^H L K (U_B^H R)^T, so <ref|U_A K_p
    U_B^T> = vdot(U_A^H L K (U_B^H R)^T, K_p): the same sum with its terms
    grouped differently, and ``ref_overlap`` is taken equal to it. Any other
    measure computes ``inner_product(ref_state, permuted)``.
    """
    direct = apply_measure(measure, ref_state)
    permuted = apply_measure(measure, permute(ref_state))
    event_overlap = inner_product(direct, permuted)
    if measure.factor_slot1._rows is None and measure.factor_slot2._rows is None:
        ref_overlap = event_overlap
    else:
        ref_overlap = inner_product(ref_state, permuted)
    return EventPair(
        event_direct=direct,
        event_permuted=permuted,
        norm_direct=direct.norm,
        norm_permuted=permuted.norm,
        event_overlap=event_overlap,
        ref_overlap=ref_overlap,
    )


def _verdict(measure: SelectiveMeasure, pair: EventPair, ref_norm: float,
             tol: float) -> tuple[Verdict, float, float]:
    """The one verdict rule (module docstring), for every entry point.

    Returns the verdict with the scales of its zero tests: ``measure_scale``
    and that times ``ref_norm``, the event scale. ||A^H B||_F is tested only
    when both events are nonzero (``OneParticleOperator._cross``).
    """
    factor_scale = measure_scale(measure)
    scale = factor_scale * ref_norm
    if not scale < np.inf:
        raise DegenerateInputError("the scale of the zero tests overflows a double; rescale "
                                   "the state or the measure")
    direct_zero = _negligible(pair.norm_direct, scale, tol)
    permuted_zero = _negligible(pair.norm_permuted, scale, tol)
    if direct_zero and permuted_zero:
        tag = VerdictTag.BOTH_ZERO
    elif direct_zero or permuted_zero:
        tag = VerdictTag.LOCAL_OPERATION
    else:
        cross = measure.factor_slot1._cross(measure.factor_slot2)
        tag = (VerdictTag.ENTANGLING_MEASUREMENT if _negligible(cross, factor_scale, tol)
               else VerdictTag.NON_ORTHOGONAL_EVENTS)
    return Verdict(tag=tag, tolerance_used=tol), factor_scale, scale


def classify(
    measure: SelectiveMeasure, ref_state: TwoParticleState, tol: float = ZERO_TOL
) -> Verdict:
    """Classify a selective measure against a distinguishable reference state.

    Event norms are compared against tol * scale, with scale = measure_scale
    * ||ref_state||, and ||A^H B||_F against tol * measure_scale. Callers
    normally arrange the reference state to be orthogonal to its
    permutation; the rule itself does not require it.
    """
    return _verdict(measure, events(measure, ref_state), ref_state.norm, tol)[0]


def is_projector_valued(measure: SelectiveMeasure, tol: float = ZERO_TOL) -> bool:
    """True when both factors are orthogonal projectors (Hermitian, idempotent).

    Only then is the squared event norm a Born-rule probability. One rule for
    every factor: both errors that ``OneParticleOperator._born_errors`` forms at
    most ``tol`` times min(1, ||W||_F), which is 1 for a projector, so k P with
    0 < k < 1 fails. ``window_projector`` and ``momentum_projector`` pass at
    every ``tol``.
    """
    for factor in (measure.factor_slot1, measure.factor_slot2):
        hermitian, excess, scale = factor._born_errors()
        if not (_negligible(hermitian, scale, tol) and _negligible(excess, scale, tol)):
            return False
    return True


def measure_pair(
    measure: SelectiveMeasure,
    ref: TwoParticleState,
    stat: Statistics,
    tol: float = ZERO_TOL,
) -> ScenarioResult:
    """Measure the ``stat`` sector of ``ref`` and derive everything from its events.

    The measure is applied twice, to ``ref`` and to its permutation. The
    verdict, the collapse by linearity, M(ref -+ P ref)/sqrt(2) = (direct -+
    permuted)/sqrt(2), the report ``schmidt(post_state, tol)`` and the
    before/after rank evidence all follow from those two events, computed on
    their r_A x r_B cores; one SVD call gives the spectra of the normalized
    post-state and of the direct event. ``tol`` drives every zero, rank and
    antisymmetry test. Raises DegenerateInputError when ``ref`` has no
    ``stat`` sector, or when an event, the post-state or the scale overflows.
    """
    return ScenarioResult(**_pair_results(measure, ref, stat, tol))


def _pair_results(
    measure: SelectiveMeasure, ref: TwoParticleState, stat: Statistics, tol: float
) -> dict:
    """The fields of :func:`measure_pair`'s result, which the scenarios add to."""
    pair = events(measure, ref)
    direct, permuted = pair.event_direct, pair.event_permuted
    verdict, factor_scale, scale = _verdict(measure, pair, ref.norm, tol)
    sym_norm = _INV_SQRT2 * _exchange_norm(ref, stat.sign)
    if _negligible(sym_norm, ref.norm, tol):
        raise DegenerateInputError(f"reference state has no {stat.value} sector to measure")
    with np.errstate(over="ignore", invalid="ignore"):
        core = _INV_SQRT2 * (direct.core + stat.sign * permuted.core)
    raw = _computed(measure.space, core, direct._left, direct._right, "the post-state")
    norm = raw.norm
    normalized = report = evidence = None
    # An exact zero is negligible also where the scale is 0 * inf = nan.
    if norm and not _negligible(norm, factor_scale * sym_norm, tol):
        normalized = raw.normalize()
        # Both cores are r_A x r_B in the measure's bases: one SVD call.
        spectra = np.linalg.svd(np.array([normalized.core, direct.core]), compute_uv=False)
        report = _report(normalized, spectra[0], tol)
        if not _negligible(pair.norm_direct, scale, tol):
            before = _rank(spectra[1], tol)
            after = report.schmidt_rank
            evidence = EbmEvidence(before, after, after > before)
    return dict(
        verdict=verdict,
        probability=0.0 if normalized is None else norm * norm,
        post_state=raw,
        post_state_normalized=normalized,
        report=report,
        evidence=evidence,
        event_pair=pair,
        born_rule=is_projector_valued(measure, tol),
        scale=scale,
    )


def collapse(
    measure: SelectiveMeasure,
    ref_state: TwoParticleState,
    stat: Statistics,
    tol: float = ZERO_TOL,
) -> ScenarioResult:
    """:func:`measure_pair` under an older name, returning its result.

    Kept only while ``perfbench/test_perfbench.py`` profiles this name; it
    goes together with that test.
    """
    return measure_pair(measure, ref_state, stat, tol)


def window_sites(center: int, width: int, sites: int, spins: int = 1) -> list[int]:
    """Sites covered by a width-wide window centered on ``center``, mod L.

    For even widths the extra site falls on the right; widths of at least
    the lattice size cap to the full lattice. The min(width, L) * ``spins``
    mode labels a caller builds on them are refused above the budget
    (``hilbert._budget``) before any list is built.
    """
    center, width = _window(center, width, sites, spins)
    if width >= sites:
        return list(range(sites))
    half = (width - 1) // 2
    return sorted([(center + offset) % sites for offset in range(-half, width - half)])


def _window(center, width, sites: int, spins: int) -> tuple[int, int]:
    """``center`` and ``width`` checked, with the window's labels budgeted, as ints."""
    center, width = _label(center, "window center"), _label(width, "window width")
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    if not 0 <= center < sites:
        raise IndexError(f"window center {center} out of range [0, {sites})")
    _budget(min(width, sites) * spins, "a window's label list")
    return center, width


def window_projector(center: int, width: int, space: SpaceSpec) -> OneParticleOperator:
    """Projector onto a contiguous window of lattice sites, identity on spin.

    Its range basis is the window's coordinate columns, held in closed form
    (``hilbert._Basis``); the dense basis and entries are built only when read.
    """
    spins = space.spin_dim
    sites = window_sites(center, width, space.extrinsic_dim, spins)
    modes = tuple([site * spins + spin for site in sites for spin in range(spins)])
    return OneParticleOperator._fresh(space, _Basis(space.total_dim, modes))


def momentum_projector(mode1: int, mode2: int, space: SpaceSpec) -> SelectiveMeasure:
    """Selective measure projecting slot 1 on mode1 and slot 2 on mode2.

    Each factor is the rank-one projector onto a plane-wave momentum ket on
    the extrinsic factor, tensored with the identity on spin; its range
    basis is that ket tensored with the spin basis, column ``s`` being
    ``plane_wave(mode, s, space)``, held in closed form, and the dense
    basis and entries are built only when read.
    """
    spins = range(space.spin_dim)
    return SelectiveMeasure(*(
        OneParticleOperator._fresh(space, _Basis.plane_waves(space, mode, spins))
        for mode in (mode1, mode2)
    ))
