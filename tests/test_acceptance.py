"""Acceptance suite: one pass/fail line per criterion (run with -s to see them)."""

import json
from pathlib import Path

import numpy as np

from pairmeasure import (
    SpaceSpec,
    Statistics,
    VerdictTag,
    apply_measure,
    basis_vector,
    classify,
    inner_product,
    momentum_projector,
    permute,
    plane_wave,
    scenario_momentum_projection,
    scenario_position_windows,
    schmidt,
    sector,
    tensor_state,
    TwoParticleState,
)
from pairmeasure.cli import EXIT_OK, main

from helpers import (
    brute_force_verdict,
    orthogonal_sum_residual,
    random_measure,
    random_state,
    random_unitary,
)

SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1
FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, description, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_momentum_projection_collapse():
    result = scenario_momentum_projection(SPACE, 1, 7, Statistics.FERMION)
    expected = (
        tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE)).amplitudes
        / np.sqrt(2)
    )
    ok = (
        np.max(np.abs(result.post_state.amplitudes - expected)) < 1e-12
        and result.verdict.tag is VerdictTag.LOCAL_OPERATION
        and (result.evidence.rank_before, result.evidence.rank_after) == (1, 1)
        and not result.evidence.entangled_by_measure
    )
    criterion(1, "momentum projection collapses to the half-weight product state", ok)


def test_criterion_2_position_windows_phase():
    dk = -np.pi / 2  # modes 1 and 7 on 8 sites: wavenumbers pi/4 and -pi/4
    dx = 3
    ok = True
    for stat, sign in ((Statistics.FERMION, -1.0), (Statistics.BOSON, 1.0)):
        result = scenario_position_windows(SPACE, 1, None, 2, 5, 1, stat)
        predicted = sign * np.exp(-1j * dk * dx)
        check = result.phase_check
        ok = (
            ok
            and result.verdict.tag is VerdictTag.ENTANGLING_MEASUREMENT
            and abs(abs(check.measured) - 1.0) < 1e-10
            and abs(check.measured - predicted) < 1e-10
            and check.deviation < 1e-10
            and result.report.schmidt_rank == 2
            and abs(result.report.entropy - np.log(2)) < 1e-10
        )
    criterion(2, "single-site windows entangle with relative phase -+exp(-i dk dx)", ok)


def test_criterion_3_orthogonal_sum_residual():
    rng = np.random.default_rng(101)
    space = SpaceSpec(2, 2)  # pair states of dimension 16
    ok = all(
        orthogonal_sum_residual(random_state(rng, space)) < 1e-12 for _ in range(100)
    )
    criterion(3, "fermion+boson sector sum rebuilds 100 random states", ok)


def test_criterion_4_classifier_matches_brute_force():
    rng = np.random.default_rng(102)
    space = SpaceSpec(4, 2)
    agreements = 0
    for _ in range(20):
        measure = random_measure(
            rng, space, int(rng.integers(1, 5)), int(rng.integers(1, 5))
        )
        state = random_state(rng, space)
        if classify(measure, state).tag is brute_force_verdict(measure, state, 1e-10):
            agreements += 1
    criterion(4, "classifier agrees with the dense brute-force rule 20/20", agreements == 20)


def test_criterion_5_symmetry_suite():
    rng = np.random.default_rng(103)
    space = SpaceSpec(4, 2)
    ok = True
    for _ in range(20):
        state = random_state(rng, space)
        ok = ok and np.array_equal(permute(permute(state)).amplitudes, state.amplitudes)
        fermionic = sector(state, Statistics.FERMION)
        bosonic = sector(state, Statistics.BOSON)
        ok = ok and np.linalg.norm(
            permute(fermionic).amplitudes + fermionic.amplitudes
        ) < 1e-12
        ok = ok and np.linalg.norm(
            permute(bosonic).amplitudes - bosonic.amplitudes
        ) < 1e-12
        other = sector(random_state(rng, space), Statistics.BOSON)
        ok = ok and abs(inner_product(fermionic, other)) < 1e-12
    criterion(5, "permutation involution and sector eigenvector/orthogonality suite", ok)


def test_criterion_6_entanglement_suite():
    rng = np.random.default_rng(104)
    space = SpaceSpec(4, 2)
    ok = True

    state = random_state(rng, space)
    base_entropy = schmidt(state).entropy
    for _ in range(20):
        left = random_unitary(rng, space.total_dim)
        right = random_unitary(rng, space.total_dim)
        rotated = TwoParticleState(
            space, (left @ state.matrix() @ right.T).reshape(-1)
        )
        ok = ok and abs(schmidt(rotated).entropy - base_entropy) < 1e-9

    single = sector(
        tensor_state(basis_vector(0, UP, space), basis_vector(1, DOWN, space)),
        Statistics.FERMION,
    )
    ok = ok and schmidt(single).slater_rank == 1
    second = sector(
        tensor_state(basis_vector(2, UP, space), basis_vector(3, DOWN, space)),
        Statistics.FERMION,
    )
    combined = TwoParticleState(
        space, (single.amplitudes + second.amplitudes) / np.sqrt(2)
    )
    ok = ok and schmidt(combined).slater_rank == 2

    for _ in range(50):
        antisym = sector(random_state(rng, space), Statistics.FERMION)
        ok = ok and schmidt(antisym).schmidt_rank % 2 == 0
    criterion(6, "entropy local-unitary invariance, Slater ranks, even fermion ranks", ok)


def test_criterion_7_collapse_probabilities():
    momentum = scenario_momentum_projection(SPACE, 1, 7, Statistics.FERMION)
    position = scenario_position_windows(SPACE, 1, None, 2, 5, 1, Statistics.FERMION)
    ok = (
        abs(momentum.probability - 0.5) < 1e-12
        and abs(position.probability - 1 / 64) < 1e-12
    )
    criterion(7, "collapse probabilities 1/2 (momentum) and 1/L^2 (windows)", ok)


def test_criterion_8_measure_permutation_commutator():
    measure = momentum_projector(1, 7, SPACE)
    swapped_product = permute(
        tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE))
    )
    left = apply_measure(measure, permute(swapped_product))
    right = permute(apply_measure(measure, swapped_product))
    gap = np.linalg.norm(left.amplitudes - right.amplitudes)
    criterion(8, f"measure/permutation commutator norm {gap:.3f} > 0.1", gap > 0.1)


def test_criterion_9_cli_determinism(capsys):
    ok = True
    for argv in (
        ["momentum-scenario", "--lattice", "8", "--mode-a", "1", "--mode-b", "7",
         "--statistics", "fermion", "--output", "json"],
        ["position-scenario", "--lattice", "8", "--mode-a", "1", "--xa", "2",
         "--xb", "5", "--statistics", "fermion", "--output", "json"],
    ):
        ok = ok and main(argv) == EXIT_OK
        first = capsys.readouterr().out
        ok = ok and main(argv) == EXIT_OK
        second = capsys.readouterr().out
        ok = ok and first == second and bool(json.loads(first))

    for prefix in ("momentum", "position"):
        code = main(
            ["classify",
             "--state", str(FIXTURES / f"{prefix}_state.txt"),
             "--measure", str(FIXTURES / f"{prefix}_measure.txt"),
             "--output", "json"]
        )
        capsys.readouterr()
        ok = ok and code == EXIT_OK
    with capsys.disabled():
        criterion(9, "byte-identical JSON reruns and fixture files run clean", ok)