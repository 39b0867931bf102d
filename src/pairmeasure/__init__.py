"""Selective measurements on systems of two identical particles.

Build a pair state over a factored single-particle space (lattice or
momentum modes times spin), symmetrize it for fermions or bosons, apply an
unsymmetrized tensor-product selective measurement, and classify the result:
a local operation that merely distinguishes the particles, or a measurement
that entangles them. Entanglement diagnostics (Schmidt data, Slater rank)
back every verdict quantitatively.
"""

from .entanglement import (
    EbmEvidence,
    EntanglementReport,
    schmidt,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InputTooLargeError,
    ParseError,
)
from .fileio import (
    parse_measure_file,
    parse_state_file,
    write_measure_file,
    write_state_file,
)
from .hilbert import (
    ZERO_TOL,
    OneParticleOperator,
    SingleParticleVector,
    SpaceSpec,
    TwoParticleState,
    basis_vector,
    inner_product,
    mode_index,
    plane_wave,
    tensor_state,
)
from .measurement import (
    CollapseResult,
    EventPair,
    PhaseCheck,
    ScenarioResult,
    SelectiveMeasure,
    Verdict,
    VerdictTag,
    apply_measure,
    classify,
    collapse,
    events,
    is_projector_valued,
    measure_pair,
    measure_scale,
    momentum_projector,
    window_projector,
)
from .scenarios import (
    SPIN_DOWN,
    SPIN_UP,
    scenario_momentum_projection,
    scenario_position_windows,
)
from .symmetry import Statistics, permute, sector

__version__ = "0.1.0"

__all__ = [
    "CollapseResult",
    "DegenerateInputError",
    "DimensionMismatchError",
    "EbmEvidence",
    "EntanglementReport",
    "EventPair",
    "InputTooLargeError",
    "OneParticleOperator",
    "ParseError",
    "PhaseCheck",
    "ScenarioResult",
    "SelectiveMeasure",
    "SingleParticleVector",
    "SpaceSpec",
    "SPIN_DOWN",
    "SPIN_UP",
    "Statistics",
    "TwoParticleState",
    "Verdict",
    "VerdictTag",
    "ZERO_TOL",
    "apply_measure",
    "basis_vector",
    "classify",
    "collapse",
    "events",
    "inner_product",
    "is_projector_valued",
    "measure_pair",
    "measure_scale",
    "mode_index",
    "momentum_projector",
    "parse_measure_file",
    "parse_state_file",
    "permute",
    "plane_wave",
    "scenario_momentum_projection",
    "scenario_position_windows",
    "schmidt",
    "sector",
    "tensor_state",
    "window_projector",
    "write_measure_file",
    "write_state_file",
]
