"""Benchmark of pairmeasure: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scenario-dense --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``scenario-dense``,
``classify-files`` and ``cli-small``. ``BENCHMARK.json`` gates only
``scenario-dense`` and ``cli-small``: on a 2-vCPU host shared with other
tenants, the median of ``classify-files`` (tight Python parsing loops) moved
by up to 1.7x between runs of the same code, beyond any bound a gate can
carry. It stays runnable for parser work. The program is taken from
``src/`` of the checkout; nothing is installed.

Each run first times set-up: ``SETUP_RUNS`` fresh interpreters that each
import numpy and pairmeasure, timed from spawn until they report ready;
``setup_s`` is the median. It then builds the workload's inputs from the
seed (untimed) and runs the closed loop for ``--seconds``, checking every
output against values known before the call.

``--trace 0`` prints the end-to-end metrics: setup_s, op_min_s (the fastest
call of the run), peak_rss_mb and ok_frac (1 - failed_frac; a metric that is
0 cannot carry a relative bound). ``--trace 1`` runs half the time untraced
and half with the tracer installed and prints the per-layer metrics,
including ``trace.overhead_frac`` = 1 - traced ops_per_s / untraced ops_per_s.

Why the fastest call and not the median: on a host shared with other
tenants, co-tenant load slows every instruction of a call, by up to half,
in spells from a fraction of a second to minutes. Per-call times are then a
mixture of a quiet and a contended mode, and the median, the tail and the
mean move with the share of the run spent in each: across 50 s runs of the
same code, their quartile spread reached 0.2 to 0.3 of the median. Load
only ever adds time, so the fastest call is the call's own cost on a quiet
host; its spread was 0.10 to 0.17. The median (op_p50_s), the tail
(op_tail_s: the highest percentile with at least ten samples beyond it)
and ops_per_s are still measured and recorded on the line before the
result, but are not metrics a regression can be judged by here.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
median, tail and throughput, the sample count, the tail percentile,
failed_frac, the BLAS thread count and the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("scenario-dense", "classify-files", "cli-small")
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 5

PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import pairmeasure, pairmeasure.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, flush=True)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_min_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "cli.import_numpy_s": "s",
    "cli.import_own_s": "s",
    "cli.main.self_s": "s",
    "fileio.parse.self_s": "s",
    "fileio.parse.bytes_per_op": "B",
    "fileio.parse.records_per_op": "count",
    "hilbert.build.self_s": "s",
    "hilbert.momentum_representation.self_s": "s",
    "symmetry.self_s": "s",
    "measurement.apply_measure.calls_per_op": "count",
    "measurement.events.calls_per_op": "count",
    "measurement.is_projector_valued.calls_per_op": "count",
    "measurement.apply_measure.self_s": "s",
    "measurement.collapse.self_s": "s",
    "measurement.is_projector_valued.self_s": "s",
    "measurement.apply_measure.flops_computed": "flop",
    "entanglement.svd_calls_per_op": "count",
    "entanglement.schmidt.calls_per_op": "count",
    "entanglement.schmidt.self_s": "s",
    "entanglement.ebm_evidence.self_s": "s",
    "scenarios.self_s": "s",
    "scenarios.relabel.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lattice", type=int, default=None,
                        help="lattice size; defaults to the workload's stated size")
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Pin BLAS/OpenMP threads and select the checkout's sources, before numpy loads.

    Children inherit both through the environment.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a pairmeasure checkout."""
    needed = [SRC / "pairmeasure" / "__init__.py", ROOT / "tests" / "fixtures"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        sys.exit(f"perfbench: not a pairmeasure checkout, missing {', '.join(missing)}")


def measure_setup() -> tuple[list[float], list[float], list[float]]:
    """Spawn-to-ready times of fresh interpreters, and their import times.

    One extra first run fills the bytecode cache and is dropped.
    """
    ready_s, numpy_s, own_s = [], [], []
    for attempt in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                env=os.environ.copy(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.strip():
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
        if attempt:
            ready_s.append(elapsed)
            numpy_time, own_time = (float(x) for x in line.split())
            numpy_s.append(numpy_time)
            own_s.append(own_time)
    return ready_s, numpy_s, own_s


def tail(durations: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond."""
    if not durations:
        return 0.0, 0.0
    ordered = sorted(durations)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def overhead_frac(plain, traced) -> float:
    """Share of untraced throughput lost with the tracer installed."""
    plain_rate = len(plain.durations) / plain.wall_s
    if plain_rate == 0.0:  # every call failed; the result is already incorrect
        return 0.0
    return 1.0 - len(traced.durations) / traced.wall_s / plain_rate


def environment_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the record printed before it."""
    import pairmeasure
    import tracing
    import workloads

    if not Path(pairmeasure.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: pairmeasure resolves to {pairmeasure.__file__}, not {SRC}")

    setup_runs, numpy_runs, own_runs = measure_setup()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.build(args.workload, args.seed, args.lattice, Path(workdir))
        workloads.run_loop(workload.cases[:1], 0.0)  # warm-up: first-call costs are set-up
        if args.trace:
            plain = workloads.run_loop(workload.cases, args.seconds / 2)
            workload.start_trace()
            try:
                traced = workloads.run_loop(workload.cases, args.seconds / 2)
            finally:
                snapshot = workload.stop_trace()
            loops = [plain, traced]
        else:
            loops = [workloads.run_loop(workload.cases, args.seconds)]
        peak_rss_mb = workload.peak_rss_mb()

    attempted = sum(loop.attempted for loop in loops)
    failures = [message for loop in loops for message in loop.failures]
    measured = loops[0]
    tail_value, tail_percentile = tail(measured.durations)
    if args.trace:
        values = {
            "cli.import_numpy_s": statistics.median(numpy_runs),
            "cli.import_own_s": statistics.median(own_runs),
            **tracing.per_layer_metrics(snapshot, traced.attempted),
            "trace.overhead_frac": overhead_frac(plain, traced),
        }
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_runs),
            "op_min_s": min(measured.durations, default=0.0),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(measured.failures) / measured.attempted,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "lattice": workload.lattice,
        "op_p50_s": statistics.median(measured.durations) if measured.durations else 0.0,
        "op_tail_s": tail_value,
        "ops_per_s": len(measured.durations) / measured.wall_s,
        "samples": len(measured.durations),
        "tail_percentile": tail_percentile,
        "failed_frac": len(failures) / attempted,
        "setup_runs": SETUP_RUNS,
        **environment_record(),
    }
    for message in failures[:MAX_FAILURES_SHOWN]:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    prepare_environment()
    result, record = run(args)
    print(json.dumps({"info": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
