"""Command-line front end.

Three subcommands: ``momentum-scenario`` and ``position-scenario`` run the
built-in lattice setups; ``classify`` reads a state file and a measure file
(format in :mod:`pairmeasure.fileio`) and classifies the measurement.

Text reports name the slots after the two receiving parties, Alice (slot 1)
and Bob (slot 2). JSON reports use stable keys only, floats printed with 17
significant digits, so identical invocations are byte-identical.

Reports list the post-state's singular values up to its Schmidt rank; the
rest are zero up to roundoff.

Exit codes: 0 success, 2 unreadable or malformed input, 3 degenerate input
(also a ``--lattice`` above 2**1021 sites, where plane-wave phases overflow a
double) or an array above the memory budget (``hilbert._budget``, which
refuses ``--width`` past 2,048 sites), 1 when stdout closes early (nothing
more prints).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

import numpy as np

from .errors import DegenerateInputError, ParseError
from .hilbert import ZERO_TOL, SpaceSpec, _negligible
from .hilbert import _format_float as _fmt
from .measurement import ScenarioResult, measure_pair
from .symmetry import Statistics

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


def _json_text(value) -> str:
    """Serialize with deterministic key order and fixed float formatting; inf and nan are null."""
    import json  # only JSON reports load it

    if isinstance(value, float):
        return _fmt(value) if np.isfinite(value) else "null"
    if isinstance(value, list):
        return "[" + ", ".join(_json_text(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(key)}: {_json_text(item)}" for key, item in value.items())
        return "{" + ", ".join(parts) + "}"
    return json.dumps(value)


def _kept_spectrum(ent) -> list[float]:
    return [float(s) for s in ent.singular_values[: ent.schmidt_rank]]


def _json_report(result: ScenarioResult) -> str:
    phase = None
    if result.phase_check is not None:
        phase = {
            "measured_re": result.phase_check.measured.real,
            "measured_im": result.phase_check.measured.imag,
            "predicted_re": result.phase_check.predicted.real,
            "predicted_im": result.phase_check.predicted.imag,
            "deviation": result.phase_check.deviation,
        }
    ent = result.report
    payload = {
        "verdict": result.verdict.tag.value,
        "probability": result.probability,
        "singular_values": [] if ent is None else _kept_spectrum(ent),
        "entropy": None if ent is None else ent.entropy,
        "slater_rank": None if ent is None else ent.slater_rank,
        "phase": phase,
    }
    return _json_text(payload)


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}i"


def _text_report(result: ScenarioResult) -> str:
    pair = result.event_pair
    tol = result.verdict.tolerance_used
    lines = [
        f"verdict: {result.verdict.tag.value}",
        f"tolerance: {_fmt(tol)}",
        "event norms (Alice takes slot 1, Bob slot 2):",
        f"  direct assignment:  {_fmt(pair.norm_direct)}",
        f"  swapped assignment: {_fmt(pair.norm_permuted)}",
        f"  event overlap: {_fmt_complex(pair.event_overlap)}",
    ]
    mismatch = abs(pair.event_overlap - pair.ref_overlap)
    if not _negligible(mismatch, result.scale * result.scale, tol):
        lines.append(
            "  note: reference overlap "
            f"{_fmt_complex(pair.ref_overlap)} disagrees with the event overlap "
            "(measure is not projector-valued)"
        )
    label = "probability" if result.born_rule else "squared event norm"
    lines.append(f"{label}: {_fmt(result.probability)}")
    ent = result.report
    if ent is None:
        lines.append("post-state: none (outcome impossible)")
    else:
        values = " ".join(_fmt(s) for s in _kept_spectrum(ent))
        lines.append(f"post-state singular values: {values}")
        lines.append(f"post-state Schmidt rank: {ent.schmidt_rank}")
        lines.append(f"post-state entropy: {_fmt(ent.entropy)} nats")
        if ent.slater_rank is None:
            lines.append(
                "Slater rank: n/a (state not antisymmetric; "
                "Schmidt data is the slot-bipartition diagnostic only)"
            )
        else:
            lines.append(f"Slater rank: {ent.slater_rank}")
    phase = result.phase_check
    if phase is not None:
        lines.append(
            "phase check: measured "
            f"{_fmt_complex(phase.measured)}, predicted "
            f"{_fmt_complex(phase.predicted)}, deviation "
            f"{_fmt(phase.deviation)}"
        )
    if result.relabeled is not None:
        amps = " ".join(_fmt_complex(a) for a in result.relabeled.amplitudes)
        lines.append(f"spin state handed to (Alice, Bob): {amps}")
    return "\n".join(lines)


def _run_classify(args: argparse.Namespace, stat: Statistics) -> ScenarioResult:
    from .fileio import parse_measure_file, parse_state_file

    state = parse_state_file(args.state)
    measure = parse_measure_file(args.measure)
    if measure.space != state.space:
        raise ParseError(
            f"state file has {state.space} but measure file has {measure.space}"
        )
    if state.norm == 0.0:
        raise DegenerateInputError("cannot classify a measurement on the zero state")
    result = measure_pair(measure, state, stat, args.tol)
    # Warnings go with a report only, so that a failure stays one stderr line.
    for tag, factor in (("A", measure.factor_slot1), ("B", measure.factor_slot2)):
        # A = U W with U isometric is zero exactly when its range rows W are.
        if not np.any(factor.range_rows):
            print(f"warning: factor {tag} has no entries; the measure annihilates "
                  "every state", file=sys.stderr)
    return result


def run(args: argparse.Namespace) -> int:
    """Execute a parsed and checked command line; returns the process exit code."""
    stat = Statistics(args.statistics)
    try:
        if args.command == "classify":
            result = _run_classify(args, stat)
        elif args.command == "momentum-scenario":
            from .scenarios import scenario_momentum_projection

            result = scenario_momentum_projection(
                SpaceSpec(args.lattice, 2), args.mode_a, args.mode_b, stat, args.tol
            )
        else:
            from .scenarios import scenario_position_windows

            result = scenario_position_windows(
                SpaceSpec(args.lattice, 2), args.mode_a, args.mode_b, args.xa, args.xb,
                args.width, stat, args.tol,
            )
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateInputError, IndexError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    try:
        print(_json_report(result) if args.output == "json" else _text_report(result),
              flush=True)
    except BrokenPipeError:
        # The reader is gone. Point stdout at the null device so that the
        # interpreter's own flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--statistics", choices=["fermion", "boson"], default="fermion",
                        help="exchange statistics of the pair")
    parser.add_argument("--tol", type=float, default=ZERO_TOL, metavar="REAL",
                        help="relative tolerance for zero and rank tests, in (0, 1) "
                             f"(default {ZERO_TOL:g})")
    parser.add_argument("--output", choices=["text", "json"], default="text",
                        help="report format")


def _add_lattice(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lattice", type=int, default=8, metavar="L",
                        help="number of lattice sites (default 8)")
    parser.add_argument("--mode-a", type=int, default=1, metavar="M",
                        help="momentum mode of the spin-up particle (default 1)")
    parser.add_argument("--mode-b", type=int, default=None, metavar="M",
                        help="momentum mode of the spin-down particle "
                             "(default: L - mode_a, the opposite momentum)")


def _flag_error(message: str) -> NoReturn:
    """A bad command line: one line on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


class _Parser(argparse.ArgumentParser):
    """Reports its parse errors as one line, without the usage block.

    ``add_subparsers`` builds the subcommand parsers with the parent's class,
    so they report the same way.
    """

    def error(self, message: str) -> NoReturn:
        _flag_error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairmeasure",
        description="Classify selective measurements on a pair of identical "
                    "particles as local operations or entanglement by measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    momentum = sub.add_parser(
        "momentum-scenario",
        help="project both slots onto definite momentum modes (a local operation)",
    )
    _add_lattice(momentum)
    _add_common(momentum)

    position = sub.add_parser(
        "position-scenario",
        help="project the slots onto disjoint position windows (entangles by "
             "measurement)",
    )
    _add_lattice(position)
    position.add_argument("--xa", type=int, default=2, metavar="SITE",
                          help="window center for slot 1 / Alice (default 2)")
    position.add_argument("--xb", type=int, default=5, metavar="SITE",
                          help="window center for slot 2 / Bob (default 5)")
    position.add_argument("--width", type=int, default=1, metavar="SITES",
                          help="window width in sites (default 1)")
    _add_common(position)

    classify_cmd = sub.add_parser(
        "classify",
        help="classify a measure file against a state file",
    )
    classify_cmd.add_argument("--state", required=True, metavar="PATH",
                              help="state file (see the file-format docs)")
    classify_cmd.add_argument("--measure", required=True, metavar="PATH",
                              help="measure file with A and B factor entries")
    _add_common(classify_cmd)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """The value checks argparse cannot make; a bad value exits 2."""
    if not 0 < args.tol < np.inf:
        _flag_error("--tol must be finite and positive")
    if args.tol >= 1:
        _flag_error("--tol must be below 1")
    if args.command == "classify":
        return
    if args.lattice < 2:
        _flag_error("--lattice must be at least 2")
    for name in ("mode_a", "mode_b"):
        mode = getattr(args, name)
        if mode is not None and not 0 <= mode < args.lattice:
            _flag_error(f"--{name.replace('_', '-')} must lie in [0, L)")
    if args.command == "position-scenario":
        for flag in ("xa", "xb"):
            if not 0 <= getattr(args, flag) < args.lattice:
                _flag_error(f"--{flag} must lie in [0, L)")
        if args.width < 1:
            _flag_error("--width must be at least 1")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
