"""Selective measurements on systems of two identical particles.

Build a pair state over a factored single-particle space (lattice or
momentum modes times spin), symmetrize it for fermions or bosons, apply an
unsymmetrized tensor-product selective measurement, and classify the result:
a local operation that merely distinguishes the particles, or a measurement
that entangles them. Entanglement diagnostics (Schmidt data, Slater rank)
back every verdict quantitatively.

The package loads lazily (PEP 562): ``import pairmeasure`` imports neither
numpy nor a submodule, and a public name loads its defining module on first
use, then reads as a plain attribute. So ``python -m pairmeasure`` reaches
its entry point before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Defining module of every public name.
_EXPORTS = {
    "entanglement": ("EbmEvidence", "EntanglementReport", "schmidt"),
    "errors": ("DegenerateInputError", "DimensionMismatchError", "InputTooLargeError",
               "ParseError"),
    "fileio": ("parse_measure_file", "parse_state_file", "write_measure_file",
               "write_state_file"),
    "hilbert": ("ZERO_TOL", "OneParticleOperator", "SingleParticleVector", "SpaceSpec",
                "TwoParticleState", "basis_vector", "inner_product", "mode_index",
                "plane_wave", "tensor_state"),
    "measurement": ("EventPair", "PhaseCheck", "ScenarioResult", "SelectiveMeasure",
                    "Verdict", "VerdictTag", "apply_measure", "classify", "collapse",
                    "events", "is_projector_valued", "measure_pair", "measure_scale",
                    "momentum_projector", "window_projector"),
    "scenarios": ("SPIN_DOWN", "SPIN_UP", "scenario_momentum_projection",
                  "scenario_position_windows"),
    "symmetry": ("Statistics", "permute", "sector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
