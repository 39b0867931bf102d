"""The benchmark's workloads: seeded inputs, the timed call, and its check.

Every workload is a closed loop with one caller: each call starts after the
previous one has finished. A workload is a list of cases that the loop
cycles through in order; each case holds the call to time and a check of
its output against values known before the call.

* ``scenario-dense``: one op runs ``scenario_momentum_projection`` and then
  ``scenario_position_windows`` in process, at L=128 (pair matrices n x n
  with n=256). Dense O(n^3) work in ``measurement`` and ``entanglement`` is
  nearly all of each call. Both scenarios share one op because their call
  times differ by a third: timed separately, the median would sit on the
  boundary between the two.
* ``classify-files``: ``pairmeasure.cli.main(["classify", ...])`` in process
  on a pool of files written at set-up, at L=64. Parsing is most of each
  call. The pool is 20% sparse window measures, 60% dense momentum
  projectors and 20% general dense operators, so the median falls inside
  the momentum-projector kind and the tail inside the general kind.
* ``cli-small``: one fresh ``python -m pairmeasure`` process per call, on
  the README commands and the committed fixtures at L=8, in text and JSON
  output. Import, argparse and report output are nearly all of each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import pairmeasure
import pairmeasure.cli
from pairmeasure import SpaceSpec, Statistics
from tracing import TRACE_MARKER, Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

SIZES = {"scenario-dense": 128, "classify-files": 64, "cli-small": 8}

LOCAL = "LocalOperation"
ENTANGLING = "EntanglingMeasurement"
NON_ORTHOGONAL = "NonOrthogonalEvents"
LN2 = math.log(2.0)
REL_TOL = 1e-9
PHASE_TOL = 1e-8
RANK_TOL = 1e-8
CHILD_TIMEOUT_S = 60.0


@dataclass
class Expected:
    """Output values a call must reproduce; None means not checked."""

    verdict: str
    probability: float
    rank: int | None = None
    entropy: float | None = None
    phase: bool = False

    def problems(self, seen: dict) -> list[str]:
        """Mismatches between this expectation and an observed output."""
        out = []
        if seen.get("verdict") != self.verdict:
            out.append(f"verdict {seen.get('verdict')!r} != {self.verdict!r}")
        prob = seen.get("probability")
        if prob is None or not math.isclose(prob, self.probability, rel_tol=REL_TOL):
            out.append(f"probability {prob!r} != {self.probability!r}")
        if self.rank is not None and seen.get("rank") != self.rank:
            out.append(f"Schmidt rank {seen.get('rank')!r} != {self.rank}")
        entropy = seen.get("entropy")
        if self.entropy is not None and (
            entropy is None or abs(entropy - self.entropy) > REL_TOL
        ):
            out.append(f"entropy {entropy!r} != {self.entropy!r}")
        if self.phase:
            deviation = seen.get("phase_deviation")
            if deviation is None or not deviation < PHASE_TOL:
                out.append(f"phase deviation {deviation!r} not below {PHASE_TOL}")
        return out


@dataclass
class Case:
    """One timed call and the outputs it must produce."""

    label: str
    run: Callable[[], object]
    expected: list[Expected]
    observe: Callable[[object], list[dict]]

    def check(self, output) -> list[str]:
        seen = self.observe(output)
        if len(seen) != len(self.expected):
            return [f"{len(seen)} outputs, expected {len(self.expected)}"]
        return [p for want, got in zip(self.expected, seen) for p in want.problems(got)]


@dataclass
class LoopResult:
    attempted: int = 0
    durations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0


def run_loop(cases: list[Case], seconds: float) -> LoopResult:
    """Run cases in order, one at a time, until ``seconds`` have passed."""
    result = LoopResult()
    start = time.perf_counter()
    deadline = start + seconds
    while result.attempted == 0 or time.perf_counter() < deadline:
        case = cases[result.attempted % len(cases)]
        result.attempted += 1
        began = time.perf_counter()
        try:
            output = case.run()
        except Exception as exc:  # a failed call is counted, and the loop goes on
            result.failures.append(f"{case.label}: raised {exc!r}")
            continue
        elapsed = time.perf_counter() - began
        problems = case.check(output)
        if problems:
            result.failures.append(f"{case.label}: " + "; ".join(problems))
        else:
            result.durations.append(elapsed)
    result.wall_s = time.perf_counter() - start
    return result


# ----------------------------------------------------------------- outputs

def _rank(singular_values) -> int:
    if not singular_values:
        return 0
    top = singular_values[0]
    return sum(1 for s in singular_values if s > RANK_TOL * top)


def _observe_json(text: str) -> dict:
    payload = json.loads(text)
    phase = payload.get("phase")
    return {
        "verdict": payload.get("verdict"),
        "probability": payload.get("probability"),
        "rank": _rank(payload.get("singular_values") or []),
        "entropy": payload.get("entropy"),
        "phase_deviation": None if phase is None else phase.get("deviation"),
    }


def _observe_text(text: str) -> dict:
    seen: dict = {}
    for line in text.splitlines():
        head, _, value = line.partition(":")
        value = value.strip()
        if head == "verdict":
            seen["verdict"] = value
        elif head in ("probability", "squared event norm"):
            seen["probability"] = float(value)
        elif head == "post-state Schmidt rank":
            seen["rank"] = int(value)
        elif head == "post-state entropy":
            seen["entropy"] = float(value.split()[0])
        elif head == "phase check":
            seen["phase_deviation"] = float(value.rsplit("deviation", 1)[1])
    return seen


def _observe_cli(output) -> list[dict]:
    code, text, output_format = output
    if code != 0:
        return [{"verdict": f"exit code {code}"}]
    return [_observe_json(text) if output_format == "json" else _observe_text(text)]


def _observe_scenarios(results) -> list[dict]:
    return [
        {
            "verdict": r.verdict.tag.value,
            "probability": r.probability,
            "rank": r.report.schmidt_rank,
            "entropy": r.report.entropy,
            "phase_deviation": None if r.phase_check is None else r.phase_check.deviation,
        }
        for r in results
    ]


def momentum_expected() -> Expected:
    """Paper closed form: a local operation at probability 1/2, Schmidt rank 1."""
    return Expected(LOCAL, 0.5, rank=1, entropy=0.0)


def windows_expected(sites: int, phase: bool = True) -> Expected:
    """Paper closed form for single-site windows: p = 1/L^2, rank 2, entropy ln 2.

    ``phase`` also requires the measured relative phase to match the
    prediction; ``classify`` reports none.
    """
    return Expected(ENTANGLING, 1.0 / sites**2, rank=2, entropy=LN2, phase=phase)


def _distinct_pair(rng, sites: int) -> tuple[int, int]:
    first, second = rng.choice(sites, size=2, replace=False)
    return int(first), int(second)


# ------------------------------------------------------------- workloads

class Workload:
    """Cases of one workload, plus tracing and memory accounting."""

    def __init__(self, seed: int, lattice: int):
        self.rng = np.random.default_rng(seed)
        self.lattice = lattice
        self.cases: list[Case] = []
        self._tracer: Tracer | None = None

    def start_trace(self) -> None:
        self._tracer = Tracer()
        self._tracer.install()

    def stop_trace(self) -> dict:
        tracer, self._tracer = self._tracer, None
        tracer.uninstall()
        return tracer.snapshot()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ScenarioDense(Workload):
    """Both paper scenarios in process, one op being one call of each."""

    POOL = 64

    def __init__(self, seed: int, lattice: int):
        super().__init__(seed, lattice)
        space = SpaceSpec(lattice, 2)
        for index in range(self.POOL):
            stat = Statistics.FERMION if index % 2 == 0 else Statistics.BOSON
            mode_a, mode_b = _distinct_pair(self.rng, lattice)
            window_mode = int(self.rng.integers(lattice))
            x_a, x_b = _distinct_pair(self.rng, lattice)
            self.cases.append(
                Case(
                    label=(f"momentum({mode_a},{mode_b}) + windows(mode {window_mode}, "
                           f"sites {x_a},{x_b}) {stat.value}"),
                    run=self._call(space, mode_a, mode_b, window_mode, x_a, x_b, stat),
                    expected=[momentum_expected(), windows_expected(lattice)],
                    observe=_observe_scenarios,
                )
            )

    @staticmethod
    def _call(space, mode_a, mode_b, window_mode, x_a, x_b, stat):
        # Looked up at call time, so that the tracer's wrappers are the ones called.
        def call():
            return (
                pairmeasure.scenario_momentum_projection(space, mode_a, mode_b, stat),
                pairmeasure.scenario_position_windows(
                    space, window_mode, None, x_a, x_b, 1, stat
                ),
            )

        return call


def _plane_wave(mode: int, spin: int, sites: int) -> np.ndarray:
    amps = np.zeros(2 * sites, dtype=complex)
    amps[spin::2] = np.exp(2j * np.pi * mode * np.arange(sites) / sites) / np.sqrt(sites)
    return amps


def _write_records(path: Path, sites: int, tagged: list[tuple[str, np.ndarray]]) -> None:
    lines = [f"dim {sites} 2"]
    for tag, matrix in tagged:
        rows, cols = np.nonzero(matrix)
        for row, col in zip(rows.tolist(), cols.tolist()):
            value = matrix[row, col]
            lines.append(f"{tag} {row} {col} {value.real:.17g} {value.imag:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oracle(reference: np.ndarray, left: np.ndarray, right: np.ndarray,
            stat: Statistics, tol: float = 1e-10) -> Expected:
    """Verdict and squared collapse norm by direct dense algebra.

    Used only for general operators, for which the paper gives no closed
    form. It refuses inputs whose decision values lie within a factor of
    1e3 of a threshold, so the expected verdict does not hinge on roundoff.
    """
    direct = left @ reference @ right.T
    permuted = left @ reference.T @ right.T
    scale = (np.max(np.linalg.norm(left, axis=0)) * np.max(np.linalg.norm(right, axis=0))
             * np.linalg.norm(reference))
    norms = np.array([np.linalg.norm(direct), np.linalg.norm(permuted)])
    overlap = abs(np.vdot(direct, permuted))
    margins = np.append(norms / (tol * scale), overlap / (tol * scale**2))
    if np.any((margins > 1e-3) & (margins < 1e3)):
        raise ValueError("general operator too close to a decision threshold")
    if np.all(norms < tol * scale):
        verdict = "BothZero"
    elif np.any(norms < tol * scale):
        verdict = LOCAL
    elif overlap < tol * scale**2:
        verdict = ENTANGLING
    else:
        verdict = NON_ORTHOGONAL
    sym = (reference + stat.sign * reference.T) / np.sqrt(2.0)
    probability = float(np.linalg.norm(left @ sym @ right.T) ** 2)
    return Expected(verdict, probability)


class ClassifyFiles(Workload):
    """In-process ``classify`` on seeded state and measure files."""

    # One pool block; its order is shuffled by the seed.
    MIX = ("window",) * 2 + ("momentum",) * 6 + ("general",) * 2

    def __init__(self, seed: int, lattice: int, workdir: Path):
        super().__init__(seed, lattice)
        sites = lattice
        spin_eye = np.eye(2)
        kinds = list(self.MIX)
        self.rng.shuffle(kinds)
        for index, kind in enumerate(kinds):
            stat = Statistics.FERMION if self.rng.integers(2) == 0 else Statistics.BOSON
            mode_a, mode_b = _distinct_pair(self.rng, sites)
            reference = np.outer(_plane_wave(mode_a, 0, sites), _plane_wave(mode_b, 1, sites))
            if kind == "window":
                x_a, x_b = _distinct_pair(self.rng, sites)
                masks = [np.zeros(sites), np.zeros(sites)]
                masks[0][x_a] = masks[1][x_b] = 1.0
                left, right = (np.kron(np.diag(m), spin_eye) for m in masks)
                expected = windows_expected(sites, phase=False)
            elif kind == "momentum":
                waves = [np.exp(2j * np.pi * m * np.arange(sites) / sites) / np.sqrt(sites)
                         for m in (mode_a, mode_b)]
                left, right = (np.kron(np.outer(w, w.conj()), spin_eye) for w in waves)
                expected = momentum_expected()
            else:
                n = 2 * sites
                left, right = (
                    self.rng.standard_normal((n, n)) + 1j * self.rng.standard_normal((n, n))
                    for _ in range(2)
                )
                expected = _oracle(reference, left, right, stat)
            state_path = workdir / f"state_{index}.txt"
            measure_path = workdir / f"measure_{index}_{kind}.txt"
            _write_records(state_path, sites, [("amp", reference)])
            _write_records(measure_path, sites, [("A", left), ("B", right)])
            argv = ["classify", "--state", str(state_path), "--measure", str(measure_path),
                    "--statistics", stat.value, "--output", "json"]
            self.cases.append(
                Case(label=f"classify {kind} #{index} {stat.value}",
                     run=self._call(argv), expected=[expected], observe=_observe_cli)
            )

    @staticmethod
    def _call(argv):
        def call():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = pairmeasure.cli.main(argv)
            return code, buffer.getvalue(), "json"

        return call


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources, same threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, str, str, float]:
    """Run a child to completion; returns exit code, stdout, stderr, peak RSS in MB."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # Reap with wait4 for the child's own resource usage. Outputs are far
        # below the pipe buffer, so the child never blocks on a full pipe.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = proc.communicate()
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


class CliSmall(Workload):
    """One fresh ``python -m pairmeasure`` process per call."""

    ROUNDS = 2

    def __init__(self, seed: int, lattice: int):
        super().__init__(seed, lattice)
        self.env = child_env()
        self.child_peak_mb = 0.0
        self._snapshot: dict | None = None
        sites = lattice
        commands = []
        for _ in range(self.ROUNDS):
            stat = "fermion" if self.rng.integers(2) == 0 else "boson"
            mode_a, mode_b = _distinct_pair(self.rng, sites)
            window_mode = int(self.rng.integers(1, sites))
            x_a, x_b = _distinct_pair(self.rng, sites)
            scenario_momentum = ["momentum-scenario", "--lattice", str(sites),
                                 "--mode-a", str(mode_a), "--mode-b", str(mode_b)]
            scenario_windows = ["position-scenario", "--lattice", str(sites),
                                "--mode-a", str(window_mode), "--xa", str(x_a),
                                "--xb", str(x_b), "--width", "1"]
            fixtures = []
            if sites == 8:  # the committed fixtures are written at L=8
                fixtures = [
                    (["classify", "--state", str(FIXTURES / "momentum_state.txt"),
                      "--measure", str(FIXTURES / "momentum_measure.txt")],
                     momentum_expected()),
                    (["classify", "--state", str(FIXTURES / "position_state.txt"),
                      "--measure", str(FIXTURES / "position_measure.txt")],
                     windows_expected(sites, phase=False)),
                ]
            for argv, expected in [(scenario_momentum, momentum_expected()),
                                   (scenario_windows, windows_expected(sites)), *fixtures]:
                for output_format in ("text", "json"):
                    commands.append((argv + ["--statistics", stat, "--output", output_format],
                                     expected, output_format))
        order = self.rng.permutation(len(commands))
        for index in order:
            argv, expected, output_format = commands[index]
            self.cases.append(Case(label="pairmeasure " + " ".join(argv),
                                   run=self._call(argv, output_format),
                                   expected=[expected], observe=_observe_cli))

    def _call(self, argv, output_format):
        def call():
            if self._snapshot is None:
                command = [sys.executable, "-m", "pairmeasure", *argv]
            else:
                command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *argv]
            code, out, err, peak_mb = run_child(command, self.env)
            self.child_peak_mb = max(self.child_peak_mb, peak_mb)
            if self._snapshot is not None:
                for line in err.splitlines():
                    if line.startswith(TRACE_MARKER):
                        merge(self._snapshot, json.loads(line[len(TRACE_MARKER):]))
            return code, out, output_format

        return call

    def start_trace(self) -> None:
        self._snapshot = {}

    def stop_trace(self) -> dict:
        snapshot, self._snapshot = self._snapshot, None
        return snapshot

    def peak_rss_mb(self) -> float:
        return self.child_peak_mb


def build(name: str, seed: int, lattice: int | None, workdir: Path) -> Workload:
    lattice = SIZES[name] if lattice is None else lattice
    if name == "scenario-dense":
        return ScenarioDense(seed, lattice)
    if name == "classify-files":
        return ClassifyFiles(seed, lattice, workdir)
    if name == "cli-small":
        return CliSmall(seed, lattice)
    raise ValueError(f"unknown workload {name!r}")
