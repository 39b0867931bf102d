"""The public surface: the exported names, and the types behind every basis field."""

import numpy as np

import pairmeasure
from pairmeasure import (
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    apply_measure,
    momentum_projector,
    parse_measure_file,
    parse_state_file,
    permute,
    plane_wave,
    scenario_momentum_projection,
    scenario_position_windows,
    tensor_state,
    window_projector,
    write_measure_file,
    write_state_file,
)
from pairmeasure import hilbert

from helpers import identity_operator, random_factored_state, random_state, random_unitary

PUBLIC_NAMES = [
    "CollapseResult", "DegenerateInputError", "DimensionMismatchError", "EbmEvidence",
    "EntanglementReport", "EventPair", "InputTooLargeError", "OneParticleOperator",
    "ParseError", "PhaseCheck", "SPIN_DOWN", "SPIN_UP", "ScenarioResult",
    "SelectiveMeasure", "SingleParticleVector", "SpaceSpec", "Statistics",
    "TwoParticleState", "Verdict", "VerdictTag", "ZERO_TOL", "apply_measure",
    "basis_vector", "classify", "collapse", "events", "inner_product",
    "is_projector_valued", "measure_pair", "measure_scale", "mode_index",
    "momentum_projector", "parse_measure_file", "parse_state_file", "permute",
    "plane_wave", "scenario_momentum_projection", "scenario_position_windows", "schmidt",
    "sector", "tensor_state", "window_projector", "write_measure_file", "write_state_file",
]


def _assert_public_fields(value, optional, required):
    for name in optional + required:
        field = getattr(value, name)
        if field is None and name in optional:
            continue
        assert type(field) is np.ndarray and not field.flags.writeable, name
    for name, field in vars(value).items():
        assert name.startswith("_") or not isinstance(field, hilbert._Basis), name


def test_the_public_surface_exposes_only_read_only_arrays(tmp_path):
    # a change to the exported names is a deliberate edit of this list
    assert sorted(pairmeasure.__all__) == PUBLIC_NAMES

    rng = np.random.default_rng(41)
    space = SpaceSpec(5, 2)
    dense, factored = random_state(rng, space), random_factored_state(rng, space, 2, 3)
    window = window_projector(1, 2, space)
    caller = OneParticleOperator(space, None, range_basis=random_unitary(rng, 10)[:, :3])
    measures = [
        SelectiveMeasure(window, caller),
        SelectiveMeasure(identity_operator(space), window),
        SelectiveMeasure(caller, identity_operator(space)),
    ]
    write_state_file(tmp_path / "state.txt", dense)
    write_measure_file(tmp_path / "measure.txt", measures[0])
    parsed = parse_measure_file(tmp_path / "measure.txt")

    states = [
        dense,
        factored,
        tensor_state(plane_wave(1, 0, space), plane_wave(4, 1, space)),
        permute(factored),
        parse_state_file(tmp_path / "state.txt"),
    ]
    states += [apply_measure(measure, state) for measure in measures for state in states[:2]]
    states += [state.normalize() for state in states[-3:]]
    for result in (
        scenario_momentum_projection(space, 1, None, Statistics.FERMION),
        scenario_position_windows(space, 1, None, 0, 3, 1, Statistics.BOSON),
    ):
        states += [result.post_state, result.post_state_normalized, result.relabeled]
    for state in states:
        assert type(state) is TwoParticleState
        _assert_public_fields(state, ["left", "right"], ["core"])

    momentum = momentum_projector(2, 3, space)
    operators = [window, caller, momentum.factor_slot1, momentum.factor_slot2]
    operators += [parsed.factor_slot1, parsed.factor_slot2, identity_operator(space)]
    for operator in operators:
        assert type(operator) is OneParticleOperator
        _assert_public_fields(operator, ["range_basis"], ["range_rows", "entries"])
