"""SHA-256 of every result field over a seeded sweep, for bit-identity claims.

Usage, from the root of a checkout:

    python tests/bits_sweep.py --seed 5
    python tests/bits_sweep.py --seed 5 --omit ref_overlap
    python tests/bits_sweep.py --seed 5 --list > cases.txt

The sweep runs both scenarios over a seeded draw of lattice sizes, modes,
windows, statistics and tolerances, and ``measure_pair`` on seeded random
measures (factors built from a basis alone, given with entries and a basis,
dense projectors, dense general matrices, windows and momenta) and states
(dense and factored): 600 and 400 cases. The next 300 repeat such draws
at extreme scales: the factors' entries times 1e-160, 1e-100 or 1e100 and
the state times 1e-200 or 1e200 (or 1), where events underflow, go
subnormal or overflow; numpy's floating-point warnings are off for them.
The next 100 scale the drawn state to norm 1e-320, so that the events and
the post-state have subnormal norms, which ``normalize`` forms again. The
next 100 give each slot a dense basis U (I + delta N), orthonormal only to
about delta, with delta log-uniform in [1e-14, 1e-9] and N a complex
Gaussian matrix scaled to Frobenius norm 1/32, so that every basis passes
the orthonormality check to 1e-10. Each such case measures the projectors
on those bases three ways, from the basis only, as entries and basis, and
as dense entries, so that Born-rule flags near the drawn tol show in the
digests. The last 200 build no measure: each runs ``tensor_state`` on two
seeded vectors, or takes a seeded state (dense or factored), and returns
its ``sector``, ``normalize`` and ``schmidt``; each vector or state is at
unit scale, times 1e-200 or 1e200, or scaled to norm 1e-320. The one
case after them draws nothing: ``tensor_state`` of [1.5e308, 1.5e308], whose
norm overflows, and [1e-300, 0], a product whose norm fits. The last 100
go through the file format: each writes a drawn measure and state with
``write_measure_file`` and ``write_state_file`` into a temporary directory,
parses both back, and returns the parsed state, both parsed factors'
``entries`` (an operator's dataclass fields hold only its space) and
``measure_pair`` on the parsed pair: 1,801 cases in all. Each block
comes after the ones before it and leaves their draws as they were, so
the ``--list`` lines of the earlier cases still diff against older
checkouts. Each result, or the error its call raises, becomes
``helpers.result_bits``: every field down to array bytes and float bits;
a case of several results gives the bits of each. The last line
printed is the SHA-256 of all of them and the case count, so two checkouts
that print the same line for a seed agree bit for bit on every case.

``--omit NAME`` (repeatable) leaves out every result field of that name,
such as ``ref_overlap``, to show that a change moves that field alone.
``--list`` also prints one line per case, its label and its own digest,
for ``diff`` between checkouts.

The package is taken from ``src/`` of the checkout. The file name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from helpers import random_factored_state, random_state, random_unitary, result_bits  # noqa: E402
from pairmeasure import (  # noqa: E402
    OneParticleOperator,
    SelectiveMeasure,
    SingleParticleVector,
    SpaceSpec,
    Statistics,
    TwoParticleState,
    measure_pair,
    momentum_projector,
    parse_measure_file,
    parse_state_file,
    scenario_momentum_projection,
    scenario_position_windows,
    schmidt,
    sector,
    tensor_state,
    window_projector,
    write_measure_file,
    write_state_file,
)

SCENARIO_CASES = 600
PAIR_CASES = 400
SCALED_CASES = 300
SUBNORMAL_CASES = 100
SUBNORMAL_NORM = 1e-320
NEAR_BASIS_CASES = 100
CORE_CASES = 200
FILE_CASES = 100
CORE_SCALES = (1.0, 1e-200, 1e200, SUBNORMAL_NORM)  # the last one a norm
FACTOR_SCALES = (1.0, 1e-160, 1e-100, 1e100)
STATE_SCALES = (1.0, 1e-200, 1e200)
FACTOR_KINDS = ("basis", "entries and basis", "dense projector", "dense", "window", "momentum")


def _bits(value, omit: frozenset) -> tuple:
    """``result_bits(value)`` with the fields named in ``omit`` left out."""
    if isinstance(value, tuple):
        return tuple(_bits(item, omit) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, TwoParticleState):
        return (type(value).__name__,) + tuple(
            ("omitted",) if field.name in omit else _bits(getattr(value, field.name), omit)
            for field in dataclasses.fields(value)
        )
    return result_bits(value)


def _tol(rng) -> float:
    return 1e-10 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-14, -2))


def _scenario_case(rng):
    sites = int(rng.choice([2, 3, 4, 5, 7, 8, 16, 31, 64, 128]))
    stat = Statistics.BOSON if rng.random() < 0.5 else Statistics.FERMION
    m_a, m_b, x_a, x_b = (int(label) for label in rng.integers(0, sites, size=4))
    m_b = None if rng.random() < 0.3 else m_b
    tol = _tol(rng)
    space = SpaceSpec(sites, 2)
    if rng.random() < 0.4:
        label = f"momentum L={sites} m=({m_a}, {m_b}) {stat.value} tol={tol!r}"
        return label, lambda: scenario_momentum_projection(space, m_a, m_b, stat, tol)
    width = int(rng.choice([1, 1, 2, 3, sites]))
    label = (f"windows L={sites} m=({m_a}, {m_b}) x=({x_a}, {x_b}) w={width} "
             f"{stat.value} tol={tol!r}")
    return label, lambda: scenario_position_windows(space, m_a, m_b, x_a, x_b, width, stat, tol)


def _factor(rng, space: SpaceSpec, kind: str) -> OneParticleOperator:
    dim = space.total_dim
    basis = random_unitary(rng, dim)[:, : int(rng.integers(0, dim + 1))]
    if kind == "basis":
        return OneParticleOperator(space, None, range_basis=basis)
    if kind == "entries and basis":
        return OneParticleOperator(space, basis @ basis.conj().T, range_basis=basis)
    if kind == "dense projector":
        return OneParticleOperator(space, basis @ basis.conj().T)
    if kind == "window":
        sites = space.extrinsic_dim
        center, width = int(rng.integers(0, sites)), int(rng.integers(1, sites + 1))
        return window_projector(center, width, space)
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OneParticleOperator(space, gauss)


def _pair_draw(rng):
    """A random measure, state, statistics and tol, and a label naming them."""
    space = SpaceSpec(int(rng.integers(1, 5)), 2)
    dim = space.total_dim
    kinds = [str(kind) for kind in rng.choice(FACTOR_KINDS, size=2)]
    if kinds[0] == "momentum" or kinds[1] == "momentum":
        modes = rng.integers(0, space.extrinsic_dim, size=2)
        measure = momentum_projector(int(modes[0]), int(modes[1]), space)
        kinds = ["momentum", "momentum"]
    else:
        measure = SelectiveMeasure(*(_factor(rng, space, kind) for kind in kinds))
    label, state, stat, tol = _state_draw(rng, space)
    return f"measure_pair dim={dim} {kinds} {label}", measure, state, stat, tol


def _state_draw(rng, space: SpaceSpec):
    """A random state, dense or factored, statistics and tol, and a label naming them."""
    if rng.random() < 0.5:
        state, state_kind = random_state(rng, space), "dense"
    else:
        ranks = (int(rank) for rank in rng.integers(1, space.total_dim + 1, size=2))
        state, state_kind = random_factored_state(rng, space, *ranks), "factored"
    stat = Statistics.BOSON if rng.random() < 0.5 else Statistics.FERMION
    tol = _tol(rng)
    return f"{state_kind} {stat.value} tol={tol!r}", state, stat, tol


def _pair_case(rng):
    label, measure, state, stat, tol = _pair_draw(rng)
    return label, lambda: measure_pair(measure, state, stat, tol)


def _scaled_state(state: TwoParticleState, scale: float) -> TwoParticleState:
    """``scale`` times ``state``, built as ``state`` was: dense or from factors."""
    if state.left is None:
        return TwoParticleState(state.space, scale * state.amplitudes)
    return TwoParticleState.from_factors(state.space, state.left, scale * state.core, state.right)


def _scaled_case(rng):
    label, measure, state, stat, tol = _pair_draw(rng)
    factor_scale = float(rng.choice(FACTOR_SCALES))
    state_scale = float(rng.choice(STATE_SCALES))

    def call():
        with np.errstate(over="ignore", invalid="ignore"):
            factors = (
                OneParticleOperator(state.space, factor_scale * factor.entries,
                                    range_basis=factor.range_basis)
                for factor in (measure.factor_slot1, measure.factor_slot2)
            )
            scaled = _scaled_state(state, state_scale)
            return measure_pair(SelectiveMeasure(*factors), scaled, stat, tol)

    return f"{label} factors x{factor_scale!r} state x{state_scale!r}", call


def _subnormal_case(rng):
    label, measure, state, stat, tol = _pair_draw(rng)

    def call():
        scaled = _scaled_state(state, SUBNORMAL_NORM / state.norm)
        return measure_pair(measure, scaled, stat, tol)

    return f"{label} state norm {SUBNORMAL_NORM!r}", call


def _near_basis(rng, dim: int) -> tuple[np.ndarray, float]:
    """U (I + delta N) for a random isometry U of random rank, and delta."""
    rank = int(rng.integers(1, dim + 1))
    gauss = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    delta = float(10.0 ** rng.uniform(-14, -9))
    noise = gauss / (32.0 * np.linalg.norm(gauss))
    return random_unitary(rng, dim)[:, :rank] @ (np.eye(rank) + delta * noise), delta


def _near_basis_case(rng):
    space = SpaceSpec(int(rng.integers(1, 5)), 2)
    bases, deltas = zip(*(_near_basis(rng, space.total_dim) for _ in "AB"))
    label, state, stat, tol = _state_draw(rng, space)
    forms = (
        lambda basis: OneParticleOperator(space, None, range_basis=basis),
        lambda basis: OneParticleOperator(space, basis @ basis.conj().T, range_basis=basis),
        lambda basis: OneParticleOperator(space, basis @ basis.conj().T),
    )

    def call():
        return tuple(measure_pair(SelectiveMeasure(*map(form, bases)), state, stat, tol)
                     for form in forms)

    ranks = tuple(basis.shape[1] for basis in bases)
    return (f"near bases dim={space.total_dim} ranks={ranks} deltas={deltas!r} {label}"
            " (basis only, entries and basis, dense)"), call


def _core_scale(scale: float, norm: float) -> tuple[float, str]:
    """The factor for a ``CORE_SCALES`` entry on a norm, and a label naming it."""
    if scale == SUBNORMAL_NORM:
        return SUBNORMAL_NORM / norm, f"norm {SUBNORMAL_NORM!r}"
    return scale, f"x{scale!r}"


def _tensor_draw(rng, space: SpaceSpec):
    """Two vectors of ``CORE_SCALES``, statistics and tol, and a label naming them."""
    vectors, labels = [], []
    for scale in rng.choice(CORE_SCALES, size=2):
        amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
        factor, label = _core_scale(float(scale), float(np.linalg.norm(amps)))
        vectors.append(SingleParticleVector(space, factor * amps))
        labels.append(label)
    stat = Statistics.BOSON if rng.random() < 0.5 else Statistics.FERMION
    tol = _tol(rng)
    return f"vectors {labels[0]}, {labels[1]} {stat.value} tol={tol!r}", vectors, stat, tol


def _core_case(rng):
    space = SpaceSpec(int(rng.integers(1, 5)), 2)
    if rng.random() < 0.5:
        label, vectors, stat, tol = _tensor_draw(rng, space)

        def call():
            state = tensor_state(*vectors)
            return state, sector(state, stat), state.normalize(), schmidt(state, tol)

        return f"tensor_state dim={space.total_dim} {label}", call
    label, state, stat, tol = _state_draw(rng, space)
    factor, scale_label = _core_scale(float(rng.choice(CORE_SCALES)), state.norm)

    def call():
        scaled = _scaled_state(state, factor)
        return sector(scaled, stat), scaled.normalize(), schmidt(scaled, tol)

    return f"sector dim={space.total_dim} {label} state {scale_label}", call


def _fitting_product_case():
    space = SpaceSpec(2, 1)
    vectors = (SingleParticleVector(space, [1.5e308, 1.5e308]),
               SingleParticleVector(space, [1e-300, 0.0]))

    def call():
        state = tensor_state(*vectors)
        return state, sector(state, Statistics.BOSON), state.normalize(), schmidt(state)

    return "tensor_state dim=2 vectors [1.5e308, 1.5e308], [1e-300, 0] boson tol=1e-10", call


def _file_case(rng):
    label, measure, state, stat, tol = _pair_draw(rng)

    def call():
        with tempfile.TemporaryDirectory() as folder:
            state_path, measure_path = Path(folder, "state.txt"), Path(folder, "measure.txt")
            write_state_file(state_path, state)
            write_measure_file(measure_path, measure)
            parsed_state, parsed = parse_state_file(state_path), parse_measure_file(measure_path)
        return (parsed_state, parsed.factor_slot1.entries, parsed.factor_slot2.entries,
                measure_pair(parsed, parsed_state, stat, tol))

    return f"files {label}", call


def sweep(seed: int, omit: frozenset):
    """(label, bits) of every case, in order."""
    rng = np.random.default_rng(seed)
    cases = [_scenario_case(rng) for _ in range(SCENARIO_CASES)]
    cases += [_pair_case(rng) for _ in range(PAIR_CASES)]
    cases += [_scaled_case(rng) for _ in range(SCALED_CASES)]
    cases += [_subnormal_case(rng) for _ in range(SUBNORMAL_CASES)]
    cases += [_near_basis_case(rng) for _ in range(NEAR_BASIS_CASES)]
    cases += [_core_case(rng) for _ in range(CORE_CASES)]
    cases.append(_fitting_product_case())
    cases += [_file_case(rng) for _ in range(FILE_CASES)]
    for label, call in cases:
        try:
            bits = _bits(call(), omit)
        except (ArithmeticError, LookupError, ValueError) as exc:
            bits = ("raised", type(exc).__name__, str(exc))
        yield label, bits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--omit", action="append", default=[], metavar="NAME",
                        help="leave out every result field of this name")
    parser.add_argument("--list", action="store_true",
                        help="print each case's label and digest too")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for label, bits in sweep(args.seed, frozenset(args.omit)):
        text = repr(bits).encode()
        total.update(text + b"\n")
        count += 1
        if args.list:
            print(f"{hashlib.sha256(text).hexdigest()[:16]}  {label}")
    omitted = f" omit={','.join(args.omit)}" if args.omit else ""
    print(f"sha256 {total.hexdigest()}  cases={count} seed={args.seed}{omitted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
