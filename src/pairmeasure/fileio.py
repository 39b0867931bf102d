"""Plain-text files for pair states and selective measures.

One whitespace-separated record per line; ``#`` starts a comment line and
blank lines are skipped. The first record must declare the space:

    dim <extrinsic_dim> <spin_dim>

State files then list nonzero amplitudes by flat single-particle mode
index, slot 1 first (mode = extrinsic * spin_dim + spin):

    amp <slot1_mode> <slot2_mode> <re> <im>

Measure files list matrix entries of the two factors:

    A <row> <col> <re> <im>
    B <row> <col> <re> <im>

Unlisted amplitudes and entries are zero; a repeated index overwrites the
earlier value. Floats are written with 17 significant digits, enough to
round-trip doubles exactly. The parsed arrays pass the public constructors'
checks, as a caller's arrays do: the reader builds a dense state with
``TwoParticleState`` and each factor with ``OneParticleOperator``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError
from .hilbert import OneParticleOperator, SpaceSpec, TwoParticleState, _budget, _format_float
from .measurement import SelectiveMeasure


def _records(path: str | os.PathLike):
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield number, stripped.split()


def _parse_header(number: int, fields: list[str]) -> SpaceSpec:
    if fields[0] != "dim":
        raise ParseError(f"expected 'dim' header before '{fields[0]}' records", number)
    if len(fields) != 3:
        raise ParseError("'dim' takes exactly two fields: extrinsic_dim spin_dim", number)
    try:
        extrinsic, spin = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("'dim' fields must be integers", number) from None
    try:
        return SpaceSpec(extrinsic_dim=extrinsic, spin_dim=spin)
    except ValueError as exc:
        raise ParseError(str(exc), number) from None


def _parse_entry(
    number: int, fields: list[str], tag: str, bound: int
) -> tuple[int, int, complex]:
    if len(fields) != 5:
        raise ParseError(f"'{tag}' takes exactly four fields: index index re im", number)
    try:
        row, col = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError(f"'{tag}' indices must be integers", number) from None
    try:
        value = complex(float(fields[3]), float(fields[4]))
    except ValueError:
        raise ParseError(f"'{tag}' amplitude fields must be real numbers", number) from None
    if not np.isfinite(value):
        raise ParseError(f"'{tag}' amplitude fields must be finite", number)
    for index in (row, col):
        if not 0 <= index < bound:
            raise ParseError(f"index {index} out of range [0, {bound})", number)
    return row, col, value


def _parse(
    path: str | os.PathLike, tags: tuple[str, ...], kind: str
) -> tuple[SpaceSpec, dict[str, np.ndarray]]:
    """The space and one n x n matrix per record tag; unlisted entries are zero."""
    space = None
    matrices: dict[str, np.ndarray] = {}
    for number, fields in _records(path):
        if space is None:
            space = _parse_header(number, fields)
            dim = space.total_dim
            _budget(space.pair_dim, f"a dense {kind} on {dim} modes")
            matrices = {tag: np.zeros((dim, dim), dtype=complex) for tag in tags}
            continue
        if fields[0] == "dim":
            raise ParseError("duplicate 'dim' header", number)
        if fields[0] not in matrices:
            raise ParseError(f"unknown record '{fields[0]}' in a {kind} file", number)
        row, col, value = _parse_entry(number, fields, fields[0], space.total_dim)
        matrices[fields[0]][row, col] = value
    if space is None:
        raise ParseError("missing 'dim' header")
    return space, matrices


def parse_state_file(path: str | os.PathLike) -> TwoParticleState:
    """Read a pair state; unlisted amplitudes are zero.

    A file with no ``amp`` records yields the zero state (legal; callers
    decide whether that deserves a warning).
    """
    space, matrices = _parse(path, ("amp",), "state")
    return TwoParticleState(space, matrices.pop("amp").reshape(-1))


def parse_measure_file(path: str | os.PathLike) -> SelectiveMeasure:
    """Read a selective measure; unlisted factor entries are zero."""
    space, matrices = _parse(path, ("A", "B"), "measure")
    # pop: each parsed array is freed once the constructor has copied it
    factors = (OneParticleOperator(space, matrices.pop(tag)) for tag in ("A", "B"))
    return SelectiveMeasure(*factors)


def _write(
    path: str | os.PathLike, space: SpaceSpec, comment: str | None, matrices: dict
) -> None:
    """A ``dim`` header, then one record per nonzero entry of each tagged matrix."""
    with open(path, "w", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(f"dim {space.extrinsic_dim} {space.spin_dim}\n")
        for tag, matrix in matrices.items():
            rows, cols = np.nonzero(matrix)
            for row, col in zip(rows.tolist(), cols.tolist()):
                value = matrix[row, col]
                handle.write(
                    f"{tag} {row} {col} "
                    f"{_format_float(value.real)} {_format_float(value.imag)}\n"
                )


def write_state_file(
    path: str | os.PathLike, state: TwoParticleState, comment: str | None = None
) -> None:
    """Write a pair state in the format :func:`parse_state_file` reads."""
    _write(path, state.space, comment, {"amp": state.matrix()})


def write_measure_file(
    path: str | os.PathLike, measure: SelectiveMeasure, comment: str | None = None
) -> None:
    """Write a selective measure in the format :func:`parse_measure_file` reads."""
    matrices = {"A": measure.factor_slot1.entries, "B": measure.factor_slot2.entries}
    _write(path, measure.space, comment, matrices)
