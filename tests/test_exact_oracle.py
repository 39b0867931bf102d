"""``classify`` against the exact oracle of ``exact.py``, on dyadic inputs at unit scale.

Factors are dense Gaussian integers over 8, projectors built from a basis
alone whose entries are 0 and +-1/2 (or unit coordinate columns), and window
projectors; states are dense, or ``from_factors`` on such bases. Each case
whose exact zero tests all lie more than 16 eps from their thresholds must
get the exact verdict, and ``events`` the exact overlaps, which are doubles
here. The committed fixture files are checked against the values as written,
read as decimal rationals.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from pairmeasure import (
    ZERO_TOL,
    OneParticleOperator,
    SelectiveMeasure,
    SpaceSpec,
    TwoParticleState,
    VerdictTag,
    classify,
    events,
    measure_scale,
    window_projector,
)
from pairmeasure.fileio import parse_measure_file, parse_state_file

EPS = np.finfo(float).eps
MARGIN = 16 * Fraction(EPS)
# A real orthogonal matrix with entries +-1/2.
HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
PHASES = np.array([1, -1, 1j, -1j])
FIXTURES = Path(__file__).parent / "fixtures"


def gaussian(rng, shape, keep_rows: float = 0.8) -> np.ndarray:
    """Gaussian integers over 8 in [-4, 4] + [-4, 4]i, on a random share of rows and columns.

    Dropped rows leave a factor's range off some modes, so two factors often
    have exactly orthogonal ranges, and the events often vanish exactly.
    """
    values = (rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)) / 8
    rows, cols = rng.random(shape[0]) < keep_rows, rng.random(shape[1]) < 0.8
    return values * rows[:, None] * cols[None, :]


def dyadic_basis(rng, dim: int) -> np.ndarray:
    """A dim x r basis with orthonormal columns: Hadamard columns on four rows, or unit kets.

    Each row takes a phase from +-1, +-i, so the entries are 0, +-1/2 and +-i/2,
    or 0, +-1 and +-i.
    """
    if dim >= 4 and rng.random() < 2 / 3:
        rank = int(rng.integers(1, 5))
        block = HADAMARD[:, rng.choice(4, rank, replace=False)]
        rows = rng.choice(dim, 4, replace=False)
    else:
        rank = int(rng.integers(1, dim + 1))
        block = np.eye(rank)
        rows = rng.choice(dim, rank, replace=False)
    basis = np.zeros((dim, rank), dtype=complex)
    basis[rows] = block * rng.choice(PHASES, size=(len(rows), 1))
    return basis


def draw_factor(rng, space: SpaceSpec, kind: str):
    """A factor of ``kind`` and its exact entries."""
    if kind == "dense":
        entries = gaussian(rng, (space.total_dim,) * 2, keep_rows=0.4)
        return OneParticleOperator(space, entries), exact.exact(entries)
    if kind == "window":
        sites = space.extrinsic_dim
        factor = window_projector(int(rng.integers(sites)), int(rng.integers(1, sites + 1)), space)
        return factor, exact.exact(factor.entries)
    basis = dyadic_basis(rng, space.total_dim)
    exact_basis = exact.exact(basis)
    factor = OneParticleOperator(space, None, range_basis=basis)
    return factor, exact.product(exact_basis, exact.adjoint(exact_basis))


def draw_state(rng, space: SpaceSpec, factored: bool):
    """A dense or factored state and its exact coefficient matrix."""
    dim = space.total_dim
    if not factored:
        coeff = gaussian(rng, (dim, dim))
        return TwoParticleState(space, coeff.reshape(-1)), exact.exact(coeff)
    left, right = dyadic_basis(rng, dim), dyadic_basis(rng, dim)
    core = gaussian(rng, (left.shape[1], right.shape[1]))
    state = TwoParticleState.from_factors(space, left, core, right)
    coeff = exact.product(exact.product(exact.exact(left), exact.exact(core)),
                          exact.transpose(exact.exact(right)))
    return state, coeff


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    spins=st.integers(1, 2),
    kinds=st.tuples(*[st.sampled_from(["dense", "basis", "window"])] * 2),
    factored=st.booleans(),
    tol=st.one_of(st.just(ZERO_TOL), st.floats(1e-3, 0.5)),
)
def test_classify_gives_the_exact_verdict_on_dyadic_inputs(seed, sites, spins, kinds,
                                                             factored, tol):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, spins)
    factors, entries = zip(*(draw_factor(rng, space, kind) for kind in kinds))
    state, coeff = draw_state(rng, space, factored)
    measure = SelectiveMeasure(*factors)
    # measure_scale: a product of two rounded square roots of exact sums
    squared_scale = exact.squared_column_norm(entries[0]) * exact.squared_column_norm(entries[1])
    assert abs(Fraction(measure_scale(measure)) ** 2 - squared_scale) <= 8 * EPS * squared_scale
    want = exact.decision(*entries, coeff, tol)
    if want.clear_of(MARGIN):
        assert classify(measure, state, tol).tag is want.verdict, want.ratios


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sites=st.integers(1, 4),
    spins=st.integers(1, 2),
    kinds=st.tuples(*[st.sampled_from(["dense", "basis", "window"])] * 2),
    factored=st.booleans(),
)
def test_events_gives_the_exact_overlaps_on_dyadic_inputs(seed, sites, spins, kinds, factored):
    # every product and sum of these inputs is exactly a double
    rng = np.random.default_rng(seed)
    space = SpaceSpec(sites, spins)
    factors, entries = zip(*(draw_factor(rng, space, kind) for kind in kinds))
    state, coeff = draw_state(rng, space, factored)
    pair = events(SelectiveMeasure(*factors), state)
    want = exact.overlaps(*entries, coeff)
    for got, (real, imag) in zip((pair.event_overlap, pair.ref_overlap), want):
        assert (Fraction(got.real), Fraction(got.imag)) == (real, imag)


def as_written(path: Path, tags: tuple[str, ...]) -> list:
    """The exact matrix of each record tag in a fixture file, each field read as ``Fraction(str)``."""
    matrices = {}
    for line in path.read_text().splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "dim":
            dim = int(fields[1]) * int(fields[2])
            zeros = np.full((dim, dim), Fraction(0), dtype=object)
            matrices = {tag: (zeros.copy(), zeros.copy()) for tag in tags}
            continue
        real, imag = matrices[fields[0]]
        row, col = int(fields[1]), int(fields[2])
        real[row, col], imag[row, col] = Fraction(fields[3]), Fraction(fields[4])
    return [matrices[tag] for tag in tags]


@pytest.mark.parametrize("name, verdict", [("momentum", VerdictTag.LOCAL_OPERATION),
                                           ("position", VerdictTag.ENTANGLING_MEASUREMENT)])
def test_classify_on_the_fixtures_gives_the_exact_verdict_of_their_values(name, verdict):
    measure, state = FIXTURES / f"{name}_measure.txt", FIXTURES / f"{name}_state.txt"
    first, second = as_written(measure, ("A", "B"))
    (coeff,) = as_written(state, ("amp",))
    want = exact.decision(first, second, coeff, ZERO_TOL)
    assert want.clear_of(MARGIN), want.ratios
    got = classify(parse_measure_file(measure), parse_state_file(state))
    assert want.verdict is got.tag is verdict
