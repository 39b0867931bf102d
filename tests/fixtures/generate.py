"""Regenerate the CLI fixture files.

Run from this directory: python generate.py. ``main`` takes the output
directory, next to this script by default.
"""

from pathlib import Path

from pairmeasure import (
    SelectiveMeasure,
    SpaceSpec,
    momentum_projector,
    plane_wave,
    tensor_state,
    window_projector,
    write_measure_file,
    write_state_file,
)

HERE = Path(__file__).parent
SPACE = SpaceSpec(8, 2)
UP, DOWN = 0, 1


def main(out: Path = HERE):
    reference = tensor_state(plane_wave(1, UP, SPACE), plane_wave(7, DOWN, SPACE))
    write_state_file(
        out / "momentum_state.txt",
        reference,
        comment="reference pair: mode 1 spin up (slot 1), mode 7 spin down (slot 2), L=8",
    )
    write_measure_file(
        out / "momentum_measure.txt",
        momentum_projector(1, 7, SPACE),
        comment="momentum projectors onto modes 1 and 7, identity on spin",
    )
    write_state_file(
        out / "position_state.txt",
        reference,
        comment="same reference pair, measured by position windows",
    )
    write_measure_file(
        out / "position_measure.txt",
        SelectiveMeasure(
            window_projector(2, 1, SPACE), window_projector(5, 1, SPACE)
        ),
        comment="single-site window projectors at sites 2 and 5",
    )


if __name__ == "__main__":
    main()
