"""Command-line front end.

Three subcommands: ``momentum-scenario`` and ``position-scenario`` run the
built-in lattice setups; ``classify`` reads a state file and a measure file
(format in :mod:`pairmeasure.fileio`) and classifies the measurement.

Both reports render one mapping of every reported quantity (``_fields``),
which lists the post-state's singular values up to its Schmidt rank (the
rest are zero up to roundoff). Text reports name the slots after the two
receiving parties, Alice (slot 1) and Bob (slot 2). JSON reports use stable
keys only, floats printed with 17 significant digits and complex values as
``[re, im]``, so identical invocations are byte-identical.

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


def _fields(result: ScenarioResult) -> dict:
    """Every reported quantity of ``result``, in report order; both reports render it."""
    ent, pair, phase = result.report, result.event_pair, result.phase_check
    return {
        "verdict": result.verdict.tag.value,
        "probability": result.probability,
        "singular_values": [] if ent is None else list(ent.singular_values[: ent.schmidt_rank]),
        "entropy": None if ent is None else ent.entropy,
        "slater_rank": None if ent is None else ent.slater_rank,
        "phase": None if phase is None else {
            "measured_re": phase.measured.real, "measured_im": phase.measured.imag,
            "predicted_re": phase.predicted.real, "predicted_im": phase.predicted.imag,
            "deviation": phase.deviation,
        },
        "tolerance": result.verdict.tolerance_used,
        "scale": result.scale,
        "norm_direct": pair.norm_direct,
        "norm_permuted": pair.norm_permuted,
        "event_overlap": pair.event_overlap,
        "ref_overlap": pair.ref_overlap,
        "born_rule": result.born_rule,
        "schmidt_rank": None if ent is None else ent.schmidt_rank,
        "relabeled": None if result.relabeled is None else list(result.relabeled.amplitudes),
    }


def _json_text(value) -> str:
    """Deterministic JSON: keys in order, 17-digit floats, inf and nan null, complex [re, im]."""
    import json  # only JSON reports load it

    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, float):
        return _fmt(value) if np.isfinite(value) else "null"
    if isinstance(value, list):
        return "[" + ", ".join(_json_text(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(key)}: {_json_text(item)}" for key, item in value.items())
        return "{" + ", ".join(parts) + "}"
    return json.dumps(value)


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}i"


def _text_report(fields: dict) -> str:
    tol = fields["tolerance"]
    lines = [
        f"verdict: {fields['verdict']}",
        f"tolerance: {_fmt(tol)}",
        "event norms (Alice takes slot 1, Bob slot 2):",
        f"  direct assignment:  {_fmt(fields['norm_direct'])}",
        f"  swapped assignment: {_fmt(fields['norm_permuted'])}",
        f"  event overlap: {_fmt_complex(fields['event_overlap'])}",
    ]
    mismatch = abs(fields["event_overlap"] - fields["ref_overlap"])
    if not _negligible(mismatch, fields["scale"] * fields["scale"], tol):
        lines.append(
            "  note: reference overlap "
            f"{_fmt_complex(fields['ref_overlap'])} disagrees with the event overlap "
            "(measure is not projector-valued)"
        )
    label = "probability" if fields["born_rule"] else "squared event norm"
    lines.append(f"{label}: {_fmt(fields['probability'])}")
    if fields["schmidt_rank"] is None:
        lines.append("post-state: none (outcome impossible)")
    else:
        values = " ".join(_fmt(s) for s in fields["singular_values"])
        lines.append(f"post-state singular values: {values}")
        lines.append(f"post-state Schmidt rank: {fields['schmidt_rank']}")
        lines.append(f"post-state entropy: {_fmt(fields['entropy'])} nats")
        if fields["slater_rank"] is None:
            lines.append(
                "Slater rank: n/a (state not antisymmetric; "
                "Schmidt data is the slot-bipartition diagnostic only)"
            )
        else:
            lines.append(f"Slater rank: {fields['slater_rank']}")
    phase = fields["phase"]
    if phase is not None:
        measured = complex(phase["measured_re"], phase["measured_im"])
        predicted = complex(phase["predicted_re"], phase["predicted_im"])
        lines.append(
            f"phase check: measured {_fmt_complex(measured)}, predicted "
            f"{_fmt_complex(predicted)}, deviation {_fmt(phase['deviation'])}"
        )
    if fields["relabeled"] is not None:
        amps = " ".join(_fmt_complex(a) for a in fields["relabeled"])
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
        # A = U W, U isometric, is zero just when W is, and so is W's rescaled column norm.
        if not factor._size:
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
        fields = _fields(result)
        print(_json_text(fields) if args.output == "json" else _text_report(fields), flush=True)
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
